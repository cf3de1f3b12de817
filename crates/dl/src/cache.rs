//! Verdict caches for repeated satisfiability queries against one TBox:
//! the single-threaded [`SatCache`] and its sharded, lock-striped
//! counterpart [`SatShards`] for parallel query batteries.
//!
//! The ORM workload is *classify-heavy*: `Translation::classify` asks
//! `O(n²)` subsumption questions against a single TBox, per-role sweeps
//! re-prove `∃R.⊤`-style queries for every role, and interactive editing
//! re-runs the whole battery after each schema change. The queries
//! overlap massively — the same root label set shows up again and again —
//! so [`SatCache`] memoizes verdicts keyed on the **interned, sorted root
//! `ConceptId` label set** of the query.
//!
//! # Key canonicalization
//!
//! The cache owns a private [`Arena`]; each query is interned there and
//! its top-level conjunct list (which the arena stores sorted and
//! deduplicated) becomes the key. Two queries that differ only in `⊓`
//! argument order, duplication or nesting therefore share one cache line:
//! `A ⊓ (B ⊓ A)` and `B ⊓ A` hit the same entry. Subsumption queries
//! ([`SatCache::subsumes_cx`]) build the key for `sub ⊓ ¬sup` directly from
//! interned ids ([`Arena::intern_negated`]) — no concept tree is cloned
//! on the hot path, and the entry is shared with any
//! [`SatCache::satisfiable_cx`] call that spells the same root label set.
//!
//! # Invalidation — delta-aware since PR 4
//!
//! Entries are proved against one TBox state, witnessed by
//! [`TBox::cache_stamp`] — a process-unique TBox identity plus a mutation
//! revision. On a revision mismatch the cache no longer clears wholesale:
//! it asks [`TBox::delta_since`] *what* happened and applies per-entry
//! retention rules when the delta is pure additions:
//!
//! * **`Unsat` entries are kept outright** (counted in
//!   [`CacheStats::retained`]). Additions are monotone — every model of
//!   the grown TBox is a model of the old one, so nothing unsatisfiable
//!   becomes satisfiable.
//! * **`Sat` entries are revalidated against their stored witness
//!   model** ([`crate::tableau::Witness`], emitted by every tableau run
//!   the cache performs): each added GCI is checked to hold at every
//!   witness node and each added disjointness against every witness
//!   edge — a linear scan, no tableau rerun. Confirmed entries stay
//!   (counted in [`CacheStats::revalidated`]); unconfirmed ones are
//!   dropped individually (counted in [`CacheStats::evicted`]) and
//!   re-proved lazily on their next query. Added *role inclusions* keep
//!   only edge-free witnesses (hierarchy growth can re-route `∀`/`≤`
//!   reasoning across edges).
//! * **Budget-`Unknown` entries are evicted**: they are facts about a
//!   proof attempt, not about the TBox, and the grown TBox may well be
//!   decidable within the same budget.
//!
//! A **destructive** delta (axiom retraction) or a different TBox
//! identity (clones get fresh uids) still clears wholesale and counts one
//! `invalidations`. An **explicit** [`SatCache::clear`] also drops every
//! entry but is counted separately in [`CacheStats::clears`] — the
//! counters partition "entries died" events by cause, so stats never
//! silently drift. There is no way to observe a stale verdict: retention
//! only ever keeps entries whose proof provably transfers to the grown
//! TBox.
//!
//! # Budget semantics
//!
//! The budget is the per-proof step budget of the caller's
//! [`ExecCx`]. Definitive verdicts (`Sat`/`Unsat`) are budget-independent facts about
//! the TBox, so a hit returns them even when the caller's budget is
//! smaller than the one that proved them — the cache upgrades answers,
//! never downgrades. An inconclusive attempt is remembered as
//! [`DlOutcome::ResourceLimit`] *together with the budget that failed*:
//! it only short-circuits callers asking for at most that much budget. A
//! larger-budget retry runs the tableau again (and overwrites the entry
//! with whatever it learns), so an `Unknown` under budget `b` can never
//! shadow a later, better-funded run.
//!
//! ```
//! use orm_dl::cache::SatCache;
//! use orm_dl::concept::Concept;
//! use orm_dl::exec::ExecCx;
//! use orm_dl::tableau::SearchOutcome;
//! use orm_dl::tbox::TBox;
//!
//! let mut tbox = TBox::new();
//! let a = Concept::Atomic(tbox.atom("A"));
//! let b = Concept::Atomic(tbox.atom("B"));
//! tbox.gci(a.clone(), b.clone());
//!
//! let mut cache = SatCache::new();
//! let cx = ExecCx::with_steps(100_000);
//! let query = Concept::and([a.clone(), Concept::not(b.clone())]);
//! assert_eq!(cache.satisfiable_cx(&tbox, &query, &cx), SearchOutcome::Unsat);
//! // Same root label set, different ⊓ spelling: a pure cache hit.
//! let again = Concept::and([Concept::not(b.clone()), a.clone(), a.clone()]);
//! assert_eq!(cache.satisfiable_cx(&tbox, &again, &cx), SearchOutcome::Unsat);
//! assert_eq!(cache.stats().hits, 1);
//!
//! // Adding an axiom no longer clears the cache: the Unsat entry is
//! // monotone-safe and survives, so the re-query is another hit.
//! tbox.gci(b.clone(), a.clone());
//! assert_eq!(cache.satisfiable_cx(&tbox, &query, &cx), SearchOutcome::Unsat);
//! let stats = cache.stats();
//! assert_eq!((stats.invalidations, stats.retained, stats.hits), (0, 1, 2));
//!
//! // Retracting one does: destructive edits clear wholesale.
//! tbox.retract_gci(1);
//! assert_eq!(cache.satisfiable_cx(&tbox, &query, &cx), SearchOutcome::Unsat);
//! assert_eq!(cache.stats().invalidations, 1);
//! ```
//!
//! # Sharding ([`SatShards`])
//!
//! A single `Mutex<SatCache>` serializes every query of a parallel
//! battery. [`SatShards`] stripes the key space over `N` independent
//! caches, each behind its own lock; a query is routed by an
//! order/duplication-independent **structural hash** of its canonical
//! root label set, computed without touching any arena — so two threads
//! asking about different label sets almost always take different locks.
//! Each shard's lock is held across the whole lookup-prove-insert
//! sequence, which makes per-key work exactly-once: aggregated hit/miss
//! totals are deterministic and equal to what a sequential [`SatCache`]
//! run of the same battery reports.

use crate::arena::{splitmix, Arena, CKind, ConceptId};
use crate::concept::{Concept, RoleExpr};
use crate::exec::{ExecCx, Interrupt};
use crate::explain::{
    enumerate_mus_cx, enumerate_mus_seeded_cx, explain_unsat_cx, explain_unsat_seeded_cx,
    Explanation, MusEnumeration, MusFamily, UnsatCore,
};
use crate::tableau::{satisfiable_with_witness_cx, subsumption, DlOutcome, SearchOutcome, Witness};
use crate::tbox::{AdditionDelta, AxiomId, Delta, TBox};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

mod snapshot;

pub use snapshot::{RestoreReport, SnapshotError};

/// Hit/miss/invalidation/retention counters, for benches and acceptance
/// checks. They count tableau-cache and snapshot events only: a service's
/// admission sheds and downgrades count on its [`crate::exec::Meter`], and
/// a batch's scheduling in [`crate::par::SchedStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache without running the tableau.
    pub hits: u64,
    /// Queries that ran the tableau (and populated an entry).
    pub misses: u64,
    /// Wholesale clears caused by a TBox identity change or a destructive
    /// delta (pure additions no longer count here — see `retained`,
    /// `revalidated` and `evicted`).
    pub invalidations: u64,
    /// Wholesale clears requested explicitly through [`SatCache::clear`]
    /// (kept apart from `invalidations` so the two causes stay
    /// distinguishable).
    pub clears: u64,
    /// `Unsat` entries kept verbatim across a pure-addition delta
    /// (additions are monotone: nothing unsatisfiable becomes
    /// satisfiable).
    pub retained: u64,
    /// `Sat` entries whose stored witness model confirmed every added
    /// axiom — kept without a tableau rerun.
    pub revalidated: u64,
    /// Entries dropped individually during a pure-addition delta (witness
    /// could not confirm an added axiom, or the entry was a
    /// budget-`Unknown`); each is re-proved lazily on its next query.
    pub evicted: u64,
    /// Tableau runs cut short by a tripped cancellation token. Interrupted
    /// runs leave **no entry** — a cancelled proof says nothing about the
    /// query, so recording an `Unknown` for it would mask a provable
    /// verdict from later, uncancelled callers.
    pub cancelled: u64,
    /// Tableau runs cut short by an expired wall-clock deadline. Like
    /// `cancelled`, these leave no entry.
    pub deadlined: u64,
    /// Successful [`SatShards::snapshot`] serializations.
    pub snapshots: u64,
    /// Successful [`SatShards::restore`] installs.
    pub restores: u64,
    /// Snapshot blobs rejected by [`SatShards::restore`] — corrupt bytes
    /// (truncation, bit-flips, checksum mismatch) or a TBox
    /// stamp/fingerprint mismatch. Each rejection degrades to a cold
    /// shard, never a panic or a stale verdict.
    pub corrupt_rejected: u64,
}

impl fmt::Display for CacheStats {
    /// One compact line (`hits 3 / misses 2 / retained 1 / revalidated 0 /
    /// evicted 0 / invalidations 0 / clears 0`) — the format every example
    /// and bench report prints instead of hand-assembling the fields.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} / misses {} / retained {} / revalidated {} / evicted {} / \
             invalidations {} / clears {} / cancelled {} / deadlined {} / snapshots {} / \
             restores {} / corrupt_rejected {}",
            self.hits,
            self.misses,
            self.retained,
            self.revalidated,
            self.evicted,
            self.invalidations,
            self.clears,
            self.cancelled,
            self.deadlined,
            self.snapshots,
            self.restores,
            self.corrupt_rejected
        )
    }
}

impl CacheStats {
    /// Field-wise sum — the aggregation [`SatShards::stats`] performs
    /// across its shards.
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            clears: self.clears + other.clears,
            retained: self.retained + other.retained,
            revalidated: self.revalidated + other.revalidated,
            evicted: self.evicted + other.evicted,
            cancelled: self.cancelled + other.cancelled,
            deadlined: self.deadlined + other.deadlined,
            snapshots: self.snapshots + other.snapshots,
            restores: self.restores + other.restores,
            corrupt_rejected: self.corrupt_rejected + other.corrupt_rejected,
        }
    }

    /// The **stable serialized form** bench runs and trajectory files
    /// record: a JSON object whose key set and order are fixed (every
    /// field, always, in declaration order), so downstream tooling can
    /// diff counters across runs without schema sniffing.
    ///
    /// ```
    /// use orm_dl::cache::CacheStats;
    ///
    /// let json = CacheStats::default().to_json();
    /// assert!(json.starts_with("{\"hits\": 0, \"misses\": 0"));
    /// assert!(json.contains("\"cancelled\": 0"));
    /// assert!(json.contains("\"corrupt_rejected\": 0"));
    /// ```
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \"clears\": {}, \
             \"retained\": {}, \"revalidated\": {}, \"evicted\": {}, \"cancelled\": {}, \
             \"deadlined\": {}, \"snapshots\": {}, \"restores\": {}, \"corrupt_rejected\": {}}}",
            self.hits,
            self.misses,
            self.invalidations,
            self.clears,
            self.retained,
            self.revalidated,
            self.evicted,
            self.cancelled,
            self.deadlined,
            self.snapshots,
            self.restores,
            self.corrupt_rejected
        )
    }
}

/// A cached verdict. `Sat`/`Unsat` are final; `Sat` carries the witness
/// model its tableau run produced (the handle delta revalidation checks
/// new axioms against); `Unsat` carries its minimal unsat core once an
/// explanation has been requested (`None` until then — cores are computed
/// lazily, but never twice); `Unknown` records the largest budget that
/// failed to decide the query.
///
/// Cores survive the pure-addition retention rule alongside their `Unsat`
/// verdicts: the core's axioms persist under additions (per-kind indices
/// are append-stable), its restriction is unchanged — so it stays a
/// certified, minimal core of the grown TBox. The cached MUS `family`
/// (once an enumeration has been requested) survives the same way —
/// every cached core is still a certified, minimal core — but its
/// *completeness* flag is conservatively cleared: added axioms can create
/// brand-new MUSes the cached family has never seen.
#[derive(Clone, Debug)]
enum Entry {
    Sat { witness: Option<Witness> },
    Unsat { core: Option<UnsatCore>, family: Option<MusFamily> },
    Unknown { budget: u64 },
}

/// Memoizes [`crate::tableau::satisfiable_cx`] verdicts per root label set for one TBox
/// state. See the [module docs](self) for key and budget semantics.
#[derive(Clone, Debug, Default)]
pub struct SatCache {
    arena: Arena,
    /// The stamp the current entries were proved against.
    stamp: Option<(u64, u64)>,
    entries: HashMap<Box<[ConceptId]>, Entry>,
    stats: CacheStats,
}

impl SatCache {
    /// An empty cache, bound to no TBox yet.
    pub fn new() -> SatCache {
        SatCache::default()
    }

    /// Counters since construction (survive invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry and detach from the current TBox stamp. Counted
    /// in [`CacheStats::clears`]; the later re-binding to a TBox is *not*
    /// additionally counted as an invalidation (nothing stale was
    /// discarded by it — this clear already did).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.arena = Arena::new();
        self.stamp = None;
        self.stats.clears += 1;
    }

    /// Reconcile the cache with `tbox`'s current state: nothing on a
    /// stamp match, per-entry retention on a pure-addition delta of the
    /// same TBox, wholesale clear on identity change or destruction.
    fn validate(&mut self, tbox: &TBox) {
        let stamp = tbox.cache_stamp();
        if self.stamp == Some(stamp) {
            return;
        }
        if let Some((uid, revision)) = self.stamp {
            if uid == stamp.0 {
                if let Delta::Additions(delta) = tbox.delta_since(revision) {
                    self.revalidate(tbox, &delta);
                    self.stamp = Some(stamp);
                    return;
                }
            }
            // Different TBox value or destructive history: nothing proved
            // before can be trusted.
            self.stats.invalidations += 1;
        }
        self.entries.clear();
        self.arena = Arena::new();
        self.stamp = Some(stamp);
    }

    /// Apply the retention rules for a pure-addition delta: keep `Unsat`
    /// outright, re-check each `Sat` witness against the added axioms,
    /// evict everything else. One linear scan over the entries — the
    /// arena (and with it every key) survives untouched.
    fn revalidate(&mut self, tbox: &TBox, delta: &AdditionDelta<'_>) {
        if delta.is_empty() {
            return;
        }
        // One closure build covers every witness's disjointness scan; the
        // common all-GCI delta skips it entirely.
        let closure = (!delta.disjoint_roles.is_empty()).then(|| tbox.role_closure());
        let role_hierarchy_grew = !delta.role_inclusions.is_empty();
        // In-place retain (no re-hash, no reallocation — the common case
        // keeps everything); counters are locals because `retain` holds
        // the entries borrow.
        let (mut retained, mut revalidated, mut evicted) = (0, 0, 0);
        self.entries.retain(|_, entry| match entry {
            Entry::Unsat { family, .. } => {
                // Each cached core remains a certified, minimal MUS (its
                // restriction is untouched by additions), but new axioms
                // can spawn *new* MUSes: the family can no longer claim
                // to hold every one.
                if let Some(family) = family {
                    family.complete = false;
                }
                retained += 1;
                true
            }
            Entry::Unknown { .. } | Entry::Sat { witness: None } => {
                evicted += 1;
                false
            }
            Entry::Sat { witness: Some(witness) } => {
                let confirmed = (!role_hierarchy_grew || !witness.has_role_edges())
                    && closure.as_ref().is_none_or(|c| witness.respects_disjointness(c))
                    && delta.gcis.iter().all(|(c, d)| witness.confirms_gci(c, d));
                if confirmed {
                    revalidated += 1;
                } else {
                    evicted += 1;
                }
                confirmed
            }
        });
        self.stats.retained += retained;
        self.stats.revalidated += revalidated;
        self.stats.evicted += evicted;
    }

    /// The canonical root label set of `query`: its interned top-level
    /// conjuncts (sorted, deduplicated by the arena).
    fn key(&mut self, query: &Concept) -> Box<[ConceptId]> {
        let id = self.arena.intern(query);
        match self.arena.kind(id) {
            CKind::And(ids) => ids.clone(),
            CKind::Top => Box::new([]),
            _ => Box::new([id]),
        }
    }

    /// The canonical root label set of `a ⊓ b` given both parts by id:
    /// the sorted, deduplicated union of their top-level conjunct lists.
    /// Matches [`SatCache::key`] of the equivalent [`Concept::and`]
    /// spelling, so the two query paths share entries.
    fn pair_key(&self, a: ConceptId, b: ConceptId) -> Box<[ConceptId]> {
        fn push_root_conjuncts(arena: &Arena, id: ConceptId, out: &mut Vec<ConceptId>) {
            match arena.kind(id) {
                CKind::Top => {}
                CKind::And(ids) => out.extend_from_slice(ids),
                _ => out.push(id),
            }
        }
        let mut ids = Vec::new();
        push_root_conjuncts(&self.arena, a, &mut ids);
        push_root_conjuncts(&self.arena, b, &mut ids);
        ids.sort_unstable();
        ids.dedup();
        ids.into_boxed_slice()
    }

    /// Cache lookup for `key` under `budget`, counting a hit when the
    /// entry answers (see the budget semantics in the module docs).
    fn probe(&mut self, key: &[ConceptId], budget: u64) -> Option<DlOutcome> {
        let outcome = match self.entries.get(key)? {
            Entry::Sat { .. } => DlOutcome::Sat,
            Entry::Unsat { .. } => DlOutcome::Unsat,
            Entry::Unknown { budget: tried } if *tried >= budget => {
                // The cached attempt had at least this much budget and
                // still ran out: re-running with less cannot do better.
                DlOutcome::ResourceLimit
            }
            Entry::Unknown { .. } => return None,
        };
        self.stats.hits += 1;
        Some(outcome)
    }

    /// Remember what a tableau run under `budget` learned about `key`
    /// (`Sat` keeps the run's witness model for later delta
    /// revalidation).
    fn record(
        &mut self,
        key: Box<[ConceptId]>,
        verdict: DlOutcome,
        budget: u64,
        witness: Option<Witness>,
    ) {
        match verdict {
            DlOutcome::Sat => {
                self.entries.insert(key, Entry::Sat { witness });
            }
            DlOutcome::Unsat => {
                self.entries.insert(key, Entry::Unsat { core: None, family: None });
            }
            DlOutcome::ResourceLimit => self.record_unknown(key, budget),
        }
    }

    /// Remember a budget starvation at `budget` — monotonically. An
    /// `Unknown` is a fact about *how much* budget failed, so a starved
    /// run may only ever raise the recorded stamp: a deadline-starved
    /// request that admission control downgraded to a tiny budget must
    /// not overwrite a richer cached `Unknown { budget }` (the richer
    /// stamp short-circuits more future callers), and no starvation may
    /// shadow a certified `Sat`/`Unsat` verdict.
    fn record_unknown(&mut self, key: Box<[ConceptId]>, budget: u64) {
        match self.entries.get(&key) {
            Some(Entry::Sat { .. } | Entry::Unsat { .. }) => {}
            Some(Entry::Unknown { budget: tried }) if *tried >= budget => {}
            _ => {
                self.entries.insert(key, Entry::Unknown { budget });
            }
        }
    }

    /// The recording rule for a run that reached no verdict: an
    /// interrupted run (cancel or deadline) is counted and leaves **no**
    /// entry — it says nothing about how many steps a later caller could
    /// afford, so an entry could mask a provable verdict — while a genuine
    /// budget starvation records `Unknown` at the starving budget.
    fn record_undecided(
        &mut self,
        key: Box<[ConceptId]>,
        interrupt: Option<Interrupt>,
        budget: u64,
    ) {
        match interrupt {
            Some(Interrupt::Cancelled) => self.stats.cancelled += 1,
            Some(Interrupt::DeadlineExceeded) => self.stats.deadlined += 1,
            None => self.record_unknown(key, budget),
        }
    }

    /// Answer `key` from the cache, or run `prove` and remember what it
    /// learned — the one body behind [`SatCache::satisfiable_cx`] and
    /// [`SatCache::subsumes_cx`]. `prove` gets the cache's arena so it can
    /// rebuild the query from interned ids only on a miss.
    fn decide(
        &mut self,
        key: Box<[ConceptId]>,
        cx: &ExecCx,
        prove: impl FnOnce(&Arena) -> (SearchOutcome, Option<Witness>),
    ) -> SearchOutcome {
        let budget = step_budget(cx);
        if let Some(verdict) = self.probe(&key, budget) {
            return match verdict {
                DlOutcome::Sat => SearchOutcome::Sat,
                DlOutcome::Unsat => SearchOutcome::Unsat,
                DlOutcome::ResourceLimit => SearchOutcome::BudgetExhausted,
            };
        }
        self.stats.misses += 1;
        let (outcome, witness) = prove(&self.arena);
        match outcome {
            SearchOutcome::Sat => self.record(key, DlOutcome::Sat, budget, witness),
            SearchOutcome::Unsat => self.record(key, DlOutcome::Unsat, budget, None),
            other => self.record_undecided(key, other.interrupt(), budget),
        }
        outcome
    }

    /// Cached [`crate::tableau::satisfiable_cx`]: consult the verdict
    /// cache, fall back to the tableau on a miss, and remember what it
    /// learned. The context's per-proof step budget decides which
    /// `Unknown` entries answer (only those starved at a budget at least
    /// as rich), and **interrupted runs record nothing** — a cancelled or
    /// deadlined proof is counted ([`CacheStats::cancelled`] /
    /// [`CacheStats::deadlined`]) but leaves the entry map untouched, so
    /// no `Unknown` ever masks a verdict a later uncancelled caller could
    /// prove.
    pub fn satisfiable_cx(&mut self, tbox: &TBox, query: &Concept, cx: &ExecCx) -> SearchOutcome {
        self.validate(tbox);
        let key = self.key(query);
        self.decide(key, cx, |_| satisfiable_with_witness_cx(tbox, query, cx))
    }

    /// Cached [`crate::explain::explain_unsat_seeded_cx`]: minimal unsat
    /// cores are stored **beside** their `Unsat` verdicts and computed at
    /// most once per entry lifetime — a repeat explanation request is a
    /// hit, and a plain [`SatCache::satisfiable_cx`] on the same label set
    /// shares the entry (the verdict half answers it). A cached `Sat`
    /// short-circuits to [`Explanation::Satisfiable`] without any tableau
    /// run; a cached core survives pure additions together with its entry
    /// (additions change neither the core's axioms nor their restriction).
    ///
    /// On a miss the extraction runs under `cx`, probing `seed`'s
    /// restriction first when it is non-empty (the seed only steers how a
    /// missing core gets computed, never what gets stored). A genuine
    /// budget starvation records `Unknown` at the context's step budget; an
    /// interrupted run records nothing.
    ///
    /// ```
    /// use orm_dl::cache::SatCache;
    /// use orm_dl::concept::Concept;
    /// use orm_dl::exec::ExecCx;
    /// use orm_dl::explain::Explanation;
    /// use orm_dl::tbox::TBox;
    ///
    /// let mut tbox = TBox::new();
    /// let a = Concept::Atomic(tbox.atom("A"));
    /// let doom = tbox.gci(a.clone(), Concept::Bottom);
    ///
    /// let mut cache = SatCache::new();
    /// let cx = ExecCx::with_steps(100_000);
    /// let Explanation::Unsat(core) = cache.explain_seeded_cx(&tbox, &a, &cx, &[]) else {
    ///     panic!("A is doomed");
    /// };
    /// assert_eq!(core.axioms, vec![doom]);
    /// // Second request: answered from the stored core.
    /// assert!(matches!(cache.explain_seeded_cx(&tbox, &a, &cx, &[]), Explanation::Unsat(_)));
    /// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    /// ```
    pub fn explain_seeded_cx(
        &mut self,
        tbox: &TBox,
        query: &Concept,
        cx: &ExecCx,
        seed: &[AxiomId],
    ) -> Explanation {
        self.validate(tbox);
        let budget = step_budget(cx);
        let key = self.key(query);
        match self.entries.get(&key) {
            Some(Entry::Unsat { core: Some(core), .. }) => {
                self.stats.hits += 1;
                return Explanation::Unsat(core.clone());
            }
            Some(Entry::Sat { .. }) => {
                self.stats.hits += 1;
                return Explanation::Satisfiable;
            }
            Some(Entry::Unknown { budget: tried }) if *tried >= budget => {
                self.stats.hits += 1;
                return Explanation::ResourceLimit;
            }
            // An Unsat entry without a core still needs the extraction
            // run; Unknowns under a bigger budget re-run like any query.
            _ => {}
        }
        self.stats.misses += 1;
        let explanation = if seed.is_empty() {
            explain_unsat_cx(tbox, query, cx)
        } else {
            explain_unsat_seeded_cx(tbox, query, cx, seed)
        };
        match &explanation {
            Explanation::Unsat(core) => {
                // Preserve a previously cached family (its cores stay
                // certified regardless of which single core this
                // extraction landed on).
                let family = match self.entries.remove(&key) {
                    Some(Entry::Unsat { family, .. }) => family,
                    _ => None,
                };
                self.entries.insert(key, Entry::Unsat { core: Some(core.clone()), family });
            }
            // The explanation path has no witness to store; the entry
            // still upgrades verdict hits (and is simply evicted instead
            // of revalidated on the next addition).
            Explanation::Satisfiable => {
                self.entries.insert(key, Entry::Sat { witness: None });
            }
            // A failed extraction must never *downgrade* a certified
            // verdict or a richer-budget Unknown: `record_unknown` keeps
            // an `Unsat { core: None }` entry (proved by a plain query,
            // possibly under a larger budget) — only the explanation
            // attempt failed, not the verdict.
            Explanation::ResourceLimit => self.record_undecided(key, cx.check().err(), budget),
        }
        explanation
    }

    /// Cached [`crate::explain::enumerate_mus_seeded_cx`]: the full MUS
    /// family is stored **beside** the `Unsat` verdict (and its single
    /// core), so a repeat enumeration is a hit. Answering rules for a
    /// cached family:
    ///
    /// * a **complete** family answers any `limit ≥ len` verbatim, and a
    ///   `limit < len` request gets the first `limit` cores with
    ///   [`MusFamily::truncated`] set (a prefix of all MUSes is a valid
    ///   top-k answer);
    /// * an **incomplete** family (truncated earlier, or carried across a
    ///   pure-addition delta, which clears completeness) answers only
    ///   `limit ≤ len` requests; a larger `limit` re-enumerates, seeded
    ///   by every cached core's axioms, and overwrites the entry.
    ///
    /// A cached `Sat` short-circuits to [`MusEnumeration::Satisfiable`];
    /// a family computed here also fills the entry's single-core slot, so
    /// later [`SatCache::explain_seeded_cx`] calls hit. On a miss the
    /// extraction inherits `cx` (so enumeration stops cleanly mid-family)
    /// and is warm-started by `seed`; budget starvation records `Unknown`
    /// at the context's step budget while an interrupted run records
    /// nothing. A family truncated by an interrupt still caches its
    /// certified cores — they remain valid MUSes and warm-start the next,
    /// richer attempt.
    pub fn enumerate_seeded_cx(
        &mut self,
        tbox: &TBox,
        query: &Concept,
        cx: &ExecCx,
        limit: usize,
        seed: &[AxiomId],
    ) -> MusEnumeration {
        self.validate(tbox);
        let budget = step_budget(cx);
        let limit = limit.max(1);
        let key = self.key(query);
        match self.entries.get(&key) {
            Some(Entry::Sat { .. }) => {
                self.stats.hits += 1;
                return MusEnumeration::Satisfiable;
            }
            Some(Entry::Unsat { family: Some(family), .. }) => {
                if family.complete && family.cores.len() <= limit {
                    self.stats.hits += 1;
                    return MusEnumeration::Unsat(family.clone());
                }
                if family.cores.len() >= limit {
                    self.stats.hits += 1;
                    return MusEnumeration::Unsat(MusFamily {
                        cores: family.cores[..limit].to_vec(),
                        truncated: true,
                        complete: false,
                    });
                }
                // Incomplete and smaller than asked: fall through to a
                // re-enumeration warm-started by the cached cores.
            }
            Some(Entry::Unknown { budget: tried }) if *tried >= budget => {
                self.stats.hits += 1;
                return MusEnumeration::ResourceLimit;
            }
            _ => {}
        }
        self.stats.misses += 1;
        // Warm-start the first extraction from the caller's seed plus any
        // cached certified axioms (single core and family cores alike).
        let mut warm: Vec<AxiomId> = seed.to_vec();
        if let Some(Entry::Unsat { core, family }) = self.entries.get(&key) {
            if let Some(core) = core {
                warm.extend(core.axioms.iter().copied());
            }
            if let Some(family) = family {
                warm.extend(family.cores.iter().flat_map(|c| c.axioms.iter().copied()));
            }
        }
        warm.sort_unstable();
        warm.dedup();
        let enumeration = if warm.is_empty() {
            enumerate_mus_cx(tbox, query, cx, limit)
        } else {
            enumerate_mus_seeded_cx(tbox, query, cx, limit, &warm)
        };
        match &enumeration {
            MusEnumeration::Unsat(family) => {
                let core = match self.entries.remove(&key) {
                    Some(Entry::Unsat { core: Some(core), .. }) => Some(core),
                    _ => family.cores.first().cloned(),
                };
                self.entries.insert(key, Entry::Unsat { core, family: Some(family.clone()) });
            }
            MusEnumeration::Satisfiable => {
                self.entries.insert(key, Entry::Sat { witness: None });
            }
            // Never downgrade a certified Unsat verdict (or a
            // richer-budget Unknown) because one enumeration attempt
            // starved.
            MusEnumeration::ResourceLimit => self.record_undecided(key, cx.check().err(), budget),
        }
        enumeration
    }

    /// Cached [`crate::tableau::subsumes_cx`]: the standard reduction of
    /// `sub ⊑ sup` to unsatisfiability of `sub ⊓ ¬sup`, sharing entries
    /// with [`SatCache::satisfiable_cx`] calls on the same root label set.
    /// `Ok(Some(..))` on a certain answer (cached or proved), `Ok(None)`
    /// when the per-proof step budget ran out, `Err` when the context was
    /// interrupted — interrupted runs record nothing.
    ///
    /// The key is built from interned ids (`sub` interned as-is, `sup`
    /// through [`Arena::intern_negated`]) — no `Concept` tree is cloned
    /// per call; the query concept is only reconstructed on a miss, where
    /// the tableau run dominates the allocation anyway.
    pub fn subsumes_cx(
        &mut self,
        tbox: &TBox,
        sup: &Concept,
        sub: &Concept,
        cx: &ExecCx,
    ) -> Result<Option<bool>, Interrupt> {
        self.validate(tbox);
        let sub_id = self.arena.intern(sub);
        let neg_sup_id = self.arena.intern_negated(sup);
        let key = self.pair_key(sub_id, neg_sup_id);
        subsumption(self.decide(key, cx, |arena| {
            let query = Concept::and([arena.resolve(sub_id), arena.resolve(neg_sup_id)]);
            satisfiable_with_witness_cx(tbox, &query, cx)
        }))
    }
}

/// The per-proof step budget of `cx` as the `Unknown { budget }` stamp
/// (unmetered contexts stamp `u64::MAX`).
fn step_budget(cx: &ExecCx) -> u64 {
    cx.steps().unwrap_or(u64::MAX)
}

/// Number of shards a [`SatShards::new`] cache stripes over — comfortably
/// above the thread counts the query batteries fan out to, so concurrent
/// queries on distinct label sets rarely contend for one lock.
pub const DEFAULT_SHARDS: usize = 16;

/// A sharded [`SatCache`]: `N` independently locked, stamp-validated
/// shards, routed by a structural hash of the query's canonical root
/// label set. Shared by reference (`&SatShards` is `Sync`) across the
/// scoped worker threads of [`crate::par::fan_out`].
///
/// Routing is *stable*: two spellings of the same canonical label set
/// reach the same shard (the hash is invariant under `⊓`/`⊔` argument
/// order, duplication and constructor-level flattening, mirroring the
/// arena canonicalization that builds the keys). A routing collision
/// between *different* label sets merely co-locates them behind one lock
/// — never a correctness concern.
///
/// Each shard's lock is held across lookup **and** proof, so a key is
/// proved at most once per TBox state no matter how many threads race on
/// it, and [`SatShards::stats`] aggregates to exactly the sequential
/// totals of the same battery.
///
/// ```
/// use orm_dl::cache::SatShards;
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::tableau::SearchOutcome;
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// tbox.gci(a.clone(), b.clone());
///
/// let shards = SatShards::new();
/// let cx = ExecCx::with_steps(100_000);
/// // `&shards` suffices: shard locks are interior.
/// assert_eq!(shards.subsumes_cx(&tbox, &b, &a, &cx), Ok(Some(true)));
/// // Same label set spelled as a satisfiability query: routed to the
/// // same shard, answered from the same entry.
/// let q = Concept::and([a.clone(), Concept::not(b.clone())]);
/// assert_eq!(shards.satisfiable_cx(&tbox, &q, &cx), SearchOutcome::Unsat);
/// let stats = shards.stats();
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// ```
#[derive(Debug)]
pub struct SatShards {
    shards: Box<[Mutex<SatCache>]>,
    /// Union of certified unsat-core axioms, shared across shards as the
    /// warm-start seed for later extractions (see [`SatShards::explain_cx`]).
    seed_pool: Mutex<SeedPool>,
}

/// Certified core axioms accumulated against one exact TBox state.
/// Elements of one schema typically share their doom (one contradictory
/// axiom cluster sinks many types at once), so the pool makes every
/// extraction after the first start from an already-certified
/// neighborhood instead of a cold full-TBox tableau run.
#[derive(Debug, Default)]
struct SeedPool {
    /// The [`TBox::cache_stamp`] the axioms were certified against; a
    /// mismatch resets the pool (axiom ids are only meaningful per state).
    stamp: (u64, u64),
    /// Sorted, deduplicated axiom ids, capped at [`SEED_POOL_CAP`].
    axioms: Vec<AxiomId>,
}

/// Upper bound on pooled seed axioms — a seed approaching the whole TBox
/// would make the warm probe as expensive as the cold run it replaces.
const SEED_POOL_CAP: usize = 256;

impl Default for SatShards {
    fn default() -> SatShards {
        SatShards::new()
    }
}

impl SatShards {
    /// A sharded cache with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> SatShards {
        SatShards::with_shards(DEFAULT_SHARDS)
    }

    /// A sharded cache with `n` shards (`n = 0` is promoted to 1).
    pub fn with_shards(n: usize) -> SatShards {
        SatShards {
            shards: (0..n.max(1)).map(|_| Mutex::new(SatCache::new())).collect(),
            seed_pool: Mutex::new(SeedPool::default()),
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, route: u64) -> &Mutex<SatCache> {
        &self.shards[(route % self.shards.len() as u64) as usize]
    }

    /// Cached [`crate::tableau::satisfiable_cx`] through the owning shard
    /// (see [`SatCache::satisfiable_cx`] — interrupted runs record no
    /// entry). The shard lock is held across lookup and proof, so even
    /// racing contexts prove a key at most once per TBox state.
    pub fn satisfiable_cx(&self, tbox: &TBox, query: &Concept, cx: &ExecCx) -> SearchOutcome {
        self.shard(route_satisfiable(query)).lock().satisfiable_cx(tbox, query, cx)
    }

    /// Cached [`crate::tableau::subsumes_cx`] through the owning shard
    /// (see [`SatCache::subsumes_cx`]).
    pub fn subsumes_cx(
        &self,
        tbox: &TBox,
        sup: &Concept,
        sub: &Concept,
        cx: &ExecCx,
    ) -> Result<Option<bool>, Interrupt> {
        self.shard(route_subsumes(sup, sub)).lock().subsumes_cx(tbox, sup, sub, cx)
    }

    /// Cached unsat-core extraction through the owning shard (see
    /// [`SatCache::explain_seeded_cx`] — interrupted runs record no
    /// entry); routed like [`SatShards::satisfiable_cx`], so a verdict
    /// proved by either entry point answers the other.
    ///
    /// Extractions **warm-start each other across shards**: every
    /// certified core's axioms join a shared seed pool (keyed on the exact
    /// [`TBox::cache_stamp`]), and each later miss first probes the pooled
    /// axioms' restriction instead of running the cold full-TBox tableau.
    /// Soundness is untouched — seeds only steer the search; every returned core is
    /// still certified by its own tableau runs.
    pub fn explain_cx(&self, tbox: &TBox, query: &Concept, cx: &ExecCx) -> Explanation {
        self.with_seed_pool(
            tbox,
            query,
            |shard, seed| shard.explain_seeded_cx(tbox, query, cx, seed),
            |explanation| explanation.core().map_or(&[], std::slice::from_ref),
        )
    }

    /// Cached MUS-family enumeration through the owning shard (see
    /// [`SatCache::enumerate_seeded_cx`]); routed like
    /// [`SatShards::satisfiable_cx`], so verdicts, single cores and
    /// families all share one entry. Enumerations join the same
    /// cross-shard seed pool as [`SatShards::explain_cx`] — the reuse that
    /// keeps all-MUS enumeration within the same cost envelope as
    /// single-core extraction on multi-element diagnosis sweeps. Certified
    /// cores from a family truncated by an interrupt still feed the pool —
    /// they are valid MUSes and warm-start the retry under a richer
    /// context.
    pub fn enumerate_cx(
        &self,
        tbox: &TBox,
        query: &Concept,
        cx: &ExecCx,
        limit: usize,
    ) -> MusEnumeration {
        self.with_seed_pool(
            tbox,
            query,
            |shard, seed| shard.enumerate_seeded_cx(tbox, query, cx, limit, seed),
            |enumeration| enumeration.family().map_or(&[], |family| &family.cores),
        )
    }

    /// The warm start shared by [`SatShards::explain_cx`] and
    /// [`SatShards::enumerate_cx`]: run `extract` on the owning shard with
    /// the pooled certified core axioms of `tbox`'s exact state (keyed on
    /// [`TBox::cache_stamp`]) as its seed, so each later miss first probes
    /// the pooled axioms' restriction instead of running the cold
    /// full-TBox tableau; then feed the axioms of every core `certified`
    /// reads off the result back into the pool. Pool updates only happen
    /// for certified cores, so an interrupted extraction never pollutes
    /// the pool.
    fn with_seed_pool<T>(
        &self,
        tbox: &TBox,
        query: &Concept,
        extract: impl FnOnce(&mut SatCache, &[AxiomId]) -> T,
        certified: fn(&T) -> &[UnsatCore],
    ) -> T {
        let stamp = tbox.cache_stamp();
        let seed: Vec<AxiomId> = {
            let mut pool = self.seed_pool.lock();
            if pool.stamp != stamp {
                pool.stamp = stamp;
                pool.axioms.clear();
            }
            pool.axioms.clone()
        };
        let result = extract(&mut self.shard(route_satisfiable(query)).lock(), &seed);
        let cores = certified(&result);
        if !cores.is_empty() {
            let mut pool = self.seed_pool.lock();
            if pool.stamp == stamp && pool.axioms.len() < SEED_POOL_CAP {
                pool.axioms.extend(cores.iter().flat_map(|c| c.axioms.iter().copied()));
                pool.axioms.sort_unstable();
                pool.axioms.dedup();
                pool.axioms.truncate(SEED_POOL_CAP);
            }
        }
        result
    }

    /// Counters aggregated across all shards.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| acc.merge(s.lock().stats()))
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Explicitly clear every shard (each counts one
    /// [`CacheStats::clears`]).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Shard routing: a structural hash of the canonical root label set.
//
// The hash must satisfy one invariant: two queries whose canonical cache
// keys are equal (same interned, sorted, deduplicated root conjunct set)
// must hash equally — otherwise one logical query could live in two
// shards and be proved twice. The arena canonicalizes `⊓`/`⊔` child
// lists by sorting and deduplicating interned ids, so the hash mirrors
// that: child hashes are sorted and deduplicated at every level before
// being folded. Collisions in the *other* direction (distinct label sets
// sharing a shard) only affect lock striping, never verdicts.

/// Distinct per-constructor seeds, mixed through `splitmix` so that tags
/// land far apart in the hash space.
mod shape_tag {
    pub const TOP: u64 = 0xA1;
    pub const BOTTOM: u64 = 0xA2;
    pub const ATOM: u64 = 0xA3;
    pub const NOT_ATOM: u64 = 0xA4;
    pub const AND: u64 = 0xA5;
    pub const OR: u64 = 0xA6;
    pub const EXISTS: u64 = 0xA7;
    pub const FORALL: u64 = 0xA8;
    pub const AT_LEAST: u64 = 0xA9;
    pub const AT_MOST: u64 = 0xAA;
    pub const ROOT: u64 = 0xAB;
}

fn role_bits(r: RoleExpr) -> u64 {
    (u64::from(r.name) << 1) | u64::from(r.inverse)
}

fn number_hash(tag: u64, n: u32, r: RoleExpr) -> u64 {
    splitmix(tag ^ (u64::from(n) << 8) ^ (role_bits(r) << 40))
}

/// Structural hash of `c` (or of `¬c` in NNF when `negated` — computed
/// without materializing the negation, dual to [`Arena::intern_negated`]).
fn shape_hash(c: &Concept, negated: bool) -> u64 {
    use shape_tag as t;
    match c {
        Concept::Top => splitmix(if negated { t::BOTTOM } else { t::TOP }),
        Concept::Bottom => splitmix(if negated { t::TOP } else { t::BOTTOM }),
        Concept::Atomic(a) => {
            splitmix(if negated { t::NOT_ATOM } else { t::ATOM } ^ (u64::from(*a) << 8))
        }
        Concept::NotAtomic(a) => {
            splitmix(if negated { t::ATOM } else { t::NOT_ATOM } ^ (u64::from(*a) << 8))
        }
        Concept::And(cs) | Concept::Or(cs) => {
            let conjunctive = matches!(c, Concept::And(_)) != negated;
            let mut hs: Vec<u64> = cs.iter().map(|x| shape_hash(x, negated)).collect();
            // Order/duplication independence, mirroring the arena's
            // sorted-deduplicated child lists.
            hs.sort_unstable();
            hs.dedup();
            let mut h = splitmix(if conjunctive { t::AND } else { t::OR });
            for x in hs {
                h = splitmix(h ^ x);
            }
            h
        }
        Concept::Exists(r, body) | Concept::ForAll(r, body) => {
            let existential = matches!(c, Concept::Exists(..)) != negated;
            let tag = if existential { t::EXISTS } else { t::FORALL };
            splitmix(splitmix(tag ^ (role_bits(*r) << 8)) ^ shape_hash(body, negated))
        }
        // ¬(≥0 R) = ¬⊤ = ⊥, otherwise ¬(≥n R) = ≤(n-1) R.
        Concept::AtLeast(0, _) if negated => splitmix(t::BOTTOM),
        Concept::AtLeast(n, r) if negated => number_hash(t::AT_MOST, n - 1, *r),
        Concept::AtLeast(n, r) => number_hash(t::AT_LEAST, *n, *r),
        // ¬(≤n R) = ≥(n+1) R.
        Concept::AtMost(n, r) if negated => number_hash(t::AT_LEAST, n + 1, *r),
        Concept::AtMost(n, r) => number_hash(t::AT_MOST, *n, *r),
    }
}

/// The structural hashes of the top-level conjuncts `c` (or `¬c`)
/// contributes to a root label set, matching how [`SatCache::key`] /
/// [`SatCache::pair_key`] split one `⊓` level.
fn push_root_hashes(c: &Concept, negated: bool, out: &mut Vec<u64>) {
    match (c, negated) {
        (Concept::And(cs), false) => out.extend(cs.iter().map(|x| shape_hash(x, false))),
        // ¬(⊔ cs) = ⊓ ¬cs: the negated disjuncts are the conjuncts.
        (Concept::Or(cs), true) => out.extend(cs.iter().map(|x| shape_hash(x, true))),
        // ⊤ contributes nothing to a conjunction.
        (Concept::Top, false) | (Concept::Bottom, true) => {}
        _ => out.push(shape_hash(c, negated)),
    }
}

fn fold_root(mut hs: Vec<u64>) -> u64 {
    hs.sort_unstable();
    hs.dedup();
    let mut h = splitmix(shape_tag::ROOT);
    for x in hs {
        h = splitmix(h ^ x);
    }
    h
}

/// Shard route of a satisfiability query on `query`.
fn route_satisfiable(query: &Concept) -> u64 {
    let mut hs = Vec::new();
    push_root_hashes(query, false, &mut hs);
    fold_root(hs)
}

/// Shard route of the subsumption query `sub ⊓ ¬sup` — identical to
/// [`route_satisfiable`] of the [`Concept::and`] spelling, so the two
/// entry points co-locate shared label sets.
fn route_subsumes(sup: &Concept, sub: &Concept) -> u64 {
    let mut hs = Vec::new();
    push_root_hashes(sub, false, &mut hs);
    push_root_hashes(sup, true, &mut hs);
    fold_root(hs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::RoleExpr;

    /// A context granting every proof `n` steps.
    fn steps(n: u64) -> ExecCx {
        ExecCx::with_steps(n)
    }

    fn ab_tbox() -> (TBox, Concept, Concept) {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), b.clone());
        (t, a, b)
    }

    #[test]
    fn repeated_queries_hit() {
        let (t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        for _ in 0..10 {
            assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        }
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 10);
    }

    #[test]
    fn key_canonicalizes_conjunction_spelling() {
        let (t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q1 = Concept::and([a.clone(), b.clone()]);
        let q2 = Concept::and([b.clone(), a.clone(), a.clone()]);
        assert_eq!(cache.satisfiable_cx(&t, &q1, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.satisfiable_cx(&t, &q2, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    /// Retention rule 1: `Unsat` entries survive any pure addition
    /// outright (additions are monotone), answering the re-query as a
    /// hit with zero invalidations.
    #[test]
    fn unsat_survives_pure_addition() {
        let (mut t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        t.gci(b.clone(), a.clone());
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0, "addition cleared the cache wholesale");
        assert_eq!(stats.retained, 1);
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // Role-axiom additions keep Unsat entries too.
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        t.role_inclusion(r, s);
        t.disjoint(r, s);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0);
        assert_eq!(stats.retained, 2, "one per addition-delta the entry lived through");
        assert_eq!(stats.hits, 2);
    }

    /// Retention rule 2: a `Sat` entry whose witness confirms the added
    /// axioms is kept (revalidated); one whose witness cannot confirm
    /// them is evicted individually and re-proved on the next query —
    /// with the *new* verdict.
    #[test]
    fn sat_witness_revalidation_keeps_or_evicts() {
        let (mut t, a, b) = ab_tbox();
        let c = Concept::Atomic(t.atom("C"));
        let mut cache = SatCache::new();
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        // `C ⊑ B` leaves the witness untouched (no node mentions C).
        t.gci(c.clone(), b.clone());
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.revalidated, stats.hits), (0, 1, 1));
        // `A ⊑ ⊥` is violated by the witness (its root carries A): the
        // entry is evicted and the re-query re-proves — now Unsat.
        t.gci(a.clone(), Concept::Bottom);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.misses, 2, "evicted entry must be re-proved");
    }

    /// Retention rule 3: destructive edits (axiom retraction) still clear
    /// wholesale — removals grow the model class, so no stored proof
    /// transfers.
    #[test]
    fn destructive_edit_clears_wholesale() {
        let (mut t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let retracted = t.retract_gci(0);
        assert_eq!(retracted, (a.clone(), b.clone()));
        // Without A ⊑ B the query is satisfiable — a replayed entry would
        // be observably wrong.
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Sat);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!((stats.retained, stats.revalidated), (0, 0));
        assert_eq!(stats.misses, 2);
    }

    /// Budget-`Unknown` entries are evicted on any delta: the grown TBox
    /// may be decidable within the budget that previously ran out.
    #[test]
    fn unknown_entries_evicted_on_additions() {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), Concept::Exists(r, Box::new(a.clone())));
        let mut cache = SatCache::new();
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::BudgetExhausted);
        t.gci(b.clone(), Concept::Top);
        // The entry is gone: the query re-runs rather than replaying the
        // stale Unknown.
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::BudgetExhausted);
        let stats = cache.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    /// Interning a fresh name is not a mutation: entries survive without
    /// even a revalidation pass.
    #[test]
    fn fresh_names_leave_entries_untouched() {
        let (mut t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        t.atom("Fresh");
        t.role("FreshRole");
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.retained, stats.revalidated), (0, 0, 0));
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    /// Role-inclusion additions keep edge-free `Sat` witnesses and evict
    /// edged ones (hierarchy growth can re-route `∀`/`≤` reasoning).
    #[test]
    fn role_inclusions_keep_only_edge_free_witnesses() {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), Concept::some(r));
        let mut cache = SatCache::new();
        // `a` forces an R-edge in its witness; `b` stays edge-free.
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Sat);
        t.role_inclusion(r, s);
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        let stats = cache.stats();
        assert_eq!(stats.revalidated, 1, "edge-free witness should survive");
        assert_eq!(stats.evicted, 1, "edged witness must be re-proved");
        assert_eq!(stats.misses, 3);
    }

    /// Disjointness additions are checked against the witness's edges:
    /// a violated witness is evicted (and the re-proof may flip the
    /// verdict), an untouched one survives.
    #[test]
    fn disjointness_additions_check_witness_edges() {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), Concept::and([Concept::some(r), Concept::some(s)]));
        let mut cache = SatCache::new();
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Sat);
        // R and S land on *different* witness edges here, so both
        // entries survive the new disjointness.
        t.disjoint(r, s);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Sat);
        let stats = cache.stats();
        assert_eq!((stats.revalidated, stats.evicted), (2, 0));
        // A self-disjointness on R violates `a`'s witness edge: evicted,
        // re-proved, and genuinely Unsat now.
        t.disjoint(r, r);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Sat);
        let stats = cache.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.invalidations, 0);
    }

    /// Explicit clears are observable in `stats().clears` — they used to
    /// vanish entirely (the stamp reset skipped the `invalidations`
    /// counter on the next validate), leaving the stats claiming the
    /// cache had never been emptied.
    #[test]
    fn explicit_clear_is_counted() {
        let (t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().clears, 1);
        // Re-binding to the same TBox after an explicit clear is not a
        // stamp-mismatch invalidation: nothing stale was discarded.
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 0);
        assert_eq!(stats.clears, 1);
        assert_eq!(stats.misses, 2);
    }

    /// A failed explanation attempt must never downgrade a certified
    /// verdict: an `Unsat` entry proved by a plain query (possibly under
    /// a larger budget) survives a small-budget `explain` that runs out
    /// of budget — the verdict keeps answering, only the core is absent.
    #[test]
    fn failed_explanation_does_not_downgrade_unsat() {
        use crate::explain::Explanation;
        // B ⊑ C ⊔ D, C ⊑ ⊥, D ⊑ ⊥: refuting B needs actual rule
        // applications (the unfolded `C ⊔ D` opens a choice point), so a
        // zero budget cannot re-derive what the funded run proved.
        let mut t = TBox::new();
        let b = Concept::Atomic(t.atom("B"));
        let c = Concept::Atomic(t.atom("C"));
        let d = Concept::Atomic(t.atom("D"));
        t.gci(b.clone(), Concept::or([c.clone(), d.clone()]));
        t.gci(c.clone(), Concept::Bottom);
        t.gci(d.clone(), Concept::Bottom);
        let mut cache = SatCache::new();
        // Certify the verdict through the plain path with an ample budget.
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(100_000)), SearchOutcome::Unsat);
        // A starved explanation request fails …
        assert_eq!(cache.explain_seeded_cx(&t, &b, &steps(0), &[]), Explanation::ResourceLimit);
        // … but the certified Unsat entry still answers, as a hit.
        let hits_before = cache.stats().hits;
        assert_eq!(cache.satisfiable_cx(&t, &b, &steps(0)), SearchOutcome::Unsat);
        assert_eq!(cache.stats().hits, hits_before + 1, "verdict entry was destroyed");
        // And a funded explanation later completes and stores the core.
        assert!(matches!(
            cache.explain_seeded_cx(&t, &b, &steps(100_000), &[]),
            Explanation::Unsat(_)
        ));
    }

    #[test]
    fn clones_never_alias() {
        let (t, a, b) = ab_tbox();
        let mut clone = t.clone();
        let mut cache = SatCache::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        // The clone diverges: A ⊑ B is joined by B ⊑ ⊥.
        clone.gci(b.clone(), Concept::Bottom);
        // A alone is now unsatisfiable in the clone; the entry proved
        // against `t` must not answer for it.
        assert_eq!(cache.satisfiable_cx(&clone, &a, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
    }

    #[test]
    fn unknown_entries_are_budget_aware() {
        // A query the tableau cannot decide under a tiny budget.
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Exists(r, Box::new(a.clone())));
        let mut cache = SatCache::new();
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::BudgetExhausted);
        // Same or smaller budget: short-circuited.
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::BudgetExhausted);
        assert_eq!(cache.stats().hits, 1);
        // A larger budget must actually re-run — and succeeds.
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        // The definitive verdict now answers even tiny-budget callers.
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::Sat);
    }

    #[test]
    fn subsumes_through_cache_matches_uncached() {
        let (t, a, b) = ab_tbox();
        let mut cache = SatCache::new();
        assert_eq!(cache.subsumes_cx(&t, &b, &a, &steps(100_000)), Ok(Some(true)));
        assert_eq!(cache.subsumes_cx(&t, &a, &b, &steps(100_000)), Ok(Some(false)));
        assert_eq!(
            cache.subsumes_cx(&t, &b, &a, &steps(100_000)),
            crate::tableau::subsumes_cx(&t, &b, &a, &steps(100_000))
        );
    }

    /// The id-built subsumption key equals the key of the equivalent
    /// `Concept::and` satisfiability spelling: asking one way then the
    /// other is one miss plus one hit, in either order.
    #[test]
    fn subsumes_and_satisfiable_share_entries() {
        let (t, a, b) = ab_tbox();

        let mut cache = SatCache::new();
        assert_eq!(cache.subsumes_cx(&t, &b, &a, &steps(100_000)), Ok(Some(true)));
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "satisfiable missed the subsumes entry");

        let mut cache = SatCache::new();
        assert_eq!(cache.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(cache.subsumes_cx(&t, &b, &a, &steps(100_000)), Ok(Some(true)));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "subsumes missed the satisfiable entry");

        // Compound sides exercise the De Morgan split of the key: sup an
        // ⊔ (whose negation contributes several conjuncts) and sub an ⊓.
        let mut cache = SatCache::new();
        let sup = Concept::or([b.clone(), Concept::some(RoleExpr::direct(0))]);
        let sub = Concept::and([a.clone(), b.clone()]);
        let spelled = Concept::and([sub.clone(), Concept::not(sup.clone())]);
        let via_ids = cache.subsumes_cx(&t, &sup, &sub, &steps(100_000));
        assert_eq!(
            cache.satisfiable_cx(&t, &spelled, &steps(100_000)) == SearchOutcome::Unsat,
            via_ids == Ok(Some(true))
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "compound keys diverged");
    }

    #[test]
    fn shards_route_spellings_to_one_entry() {
        let (t, a, b) = ab_tbox();
        let shards = SatShards::new();
        let q1 = Concept::and([a.clone(), Concept::not(b.clone())]);
        let q2 = Concept::and([Concept::not(b.clone()), a.clone(), a.clone()]);
        assert_eq!(shards.satisfiable_cx(&t, &q1, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(shards.satisfiable_cx(&t, &q2, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(shards.subsumes_cx(&t, &b, &a, &steps(100_000)), Ok(Some(true)));
        let stats = shards.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2), "spellings split across shards");
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn shards_spread_distinct_queries() {
        let mut t = TBox::new();
        let atoms: Vec<Concept> =
            (0..64).map(|i| Concept::Atomic(t.atom(format!("A{i}")))).collect();
        let shards = SatShards::with_shards(8);
        for q in &atoms {
            assert_eq!(shards.satisfiable_cx(&t, q, &steps(100_000)), SearchOutcome::Sat);
        }
        assert_eq!(shards.len(), 64);
        // With 64 distinct keys over 8 shards, a constant router would
        // put everything in one shard; the structural hash must occupy
        // several.
        let occupied = shards.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(occupied > 1, "router degenerated to a single shard");
        let stats = shards.stats();
        assert_eq!((stats.misses, stats.hits), (64, 0));
    }

    #[test]
    fn shards_clear_counts_per_shard() {
        let (t, a, _) = ab_tbox();
        let shards = SatShards::with_shards(4);
        assert_eq!(shards.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        shards.clear();
        assert!(shards.is_empty());
        assert_eq!(shards.stats().clears, 4);
    }

    /// A TBox with two independent refutations of `A` — the enumeration
    /// fixture the cache-interaction tests share.
    fn two_mus_tbox() -> (TBox, Concept) {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), Concept::Bottom);
        t.gci(a.clone(), b.clone());
        t.gci(b.clone(), Concept::Bottom);
        (t, a)
    }

    /// A repeat enumeration is a pure hit, and the family answers
    /// smaller-limit requests as an honestly truncated prefix.
    #[test]
    fn enumeration_caches_families() {
        let (t, a) = two_mus_tbox();
        let mut cache = SatCache::new();
        let MusEnumeration::Unsat(family) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[])
        else {
            panic!("A is doomed");
        };
        assert_eq!(family.cores.len(), 2);
        assert!(family.complete);
        assert_eq!(
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[]),
            MusEnumeration::Unsat(family)
        );
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        // Top-1 from the cached complete family: a truncated prefix.
        let MusEnumeration::Unsat(top1) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), 1, &[])
        else {
            panic!("A is doomed");
        };
        assert_eq!(top1.cores.len(), 1);
        assert!(top1.truncated && !top1.complete);
        assert_eq!(cache.stats().hits, 2);
        // The family also fills the single-core slot: explain hits too.
        assert!(matches!(
            cache.explain_seeded_cx(&t, &a, &steps(100_000), &[]),
            Explanation::Unsat(_)
        ));
        assert_eq!(cache.stats().hits, 3);
    }

    /// Pure additions keep the cached family's cores (append-stable ids,
    /// restriction untouched) but clear its completeness: a later
    /// full-family request re-enumerates and finds the new MUS.
    #[test]
    fn families_survive_additions_without_claiming_completeness() {
        let (mut t, a) = two_mus_tbox();
        let mut cache = SatCache::new();
        let MusEnumeration::Unsat(before) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[])
        else {
            panic!("A is doomed");
        };
        assert!(before.complete);
        // An addition creating a *third* MUS: A ⊑ C, C ⊑ ⊥.
        let c = Concept::Atomic(t.atom("C"));
        t.gci(a.clone(), c.clone());
        t.gci(c.clone(), Concept::Bottom);
        // Top-2 answers from the retained family (a valid truncated
        // prefix — both cores are still certified MUSes).
        let MusEnumeration::Unsat(top2) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), 2, &[])
        else {
            panic!("A is doomed");
        };
        assert_eq!(top2.cores, before.cores);
        assert!(top2.truncated && !top2.complete);
        assert_eq!(cache.stats().retained, 1);
        // A full request must NOT replay the stale family: it re-runs and
        // finds all three.
        let MusEnumeration::Unsat(after) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[])
        else {
            panic!("A is doomed");
        };
        assert_eq!(after.cores.len(), 3);
        assert!(after.complete);
    }

    /// Destructive deltas clear families wholesale with the rest of the
    /// cache — the re-enumeration sees only the surviving refutation.
    #[test]
    fn families_invalidated_by_destructive_deltas() {
        let (mut t, a) = two_mus_tbox();
        let mut cache = SatCache::new();
        let MusEnumeration::Unsat(family) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[])
        else {
            panic!("A is doomed");
        };
        assert_eq!(family.cores.len(), 2);
        // Retract `A ⊑ ⊥` (gci index 0): only the chained MUS remains —
        // and its gci indices have shifted, so a replayed family would be
        // observably wrong.
        t.retract_gci(0);
        let MusEnumeration::Unsat(after) =
            cache.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[])
        else {
            panic!("A is still doomed through B");
        };
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(after.cores.len(), 1);
        assert_eq!(after.cores[0].len(), 2);
        assert!(after.complete);
    }

    /// Sharded enumeration agrees with the sequential cache and shares
    /// entries with the explain/satisfiable paths.
    #[test]
    fn shards_enumerate_agrees_with_sequential() {
        let (t, a) = two_mus_tbox();
        let shards = SatShards::new();
        let mut sequential = SatCache::new();
        let via_shards = shards.enumerate_cx(&t, &a, &steps(100_000), usize::MAX);
        let via_cache = sequential.enumerate_seeded_cx(&t, &a, &steps(100_000), usize::MAX, &[]);
        let (MusEnumeration::Unsat(fs), MusEnumeration::Unsat(fc)) = (&via_shards, &via_cache)
        else {
            panic!("A is doomed both ways");
        };
        let sets = |f: &MusFamily| {
            let mut s: Vec<_> = f.cores.iter().map(|c| c.axioms.clone()).collect();
            s.sort();
            s
        };
        assert_eq!(sets(fs), sets(fc));
        assert_eq!((fs.complete, fs.truncated), (fc.complete, fc.truncated));
        // The family entry answers the other entry points as hits.
        assert_eq!(shards.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Unsat);
        assert!(matches!(shards.explain_cx(&t, &a, &steps(100_000)), Explanation::Unsat(_)));
        let stats = shards.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    /// An infinite-model query that starves any finite budget but is
    /// decided (Sat) once the budget is generous.
    fn starving_tbox() -> (TBox, Concept) {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Exists(r, Box::new(a.clone())));
        (t, a)
    }

    /// Satellite regression, direction 1: an `Unknown` starved at a small
    /// budget must NOT answer a caller whose context affords more steps.
    /// Direction 2: it MUST answer callers at or below the starving
    /// budget, and a definitive verdict answers everyone.
    #[test]
    fn unknown_entries_are_budget_aware_cx() {
        let (t, a) = starving_tbox();
        let mut cache = SatCache::new();
        let tiny = ExecCx::with_steps(1);
        assert_eq!(cache.satisfiable_cx(&t, &a, &tiny), SearchOutcome::BudgetExhausted);
        // Same budget: short-circuited by the stored Unknown.
        assert_eq!(cache.satisfiable_cx(&t, &a, &tiny), SearchOutcome::BudgetExhausted);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        // A richer context must re-prove — and decides.
        let rich = ExecCx::with_steps(100_000);
        assert_eq!(cache.satisfiable_cx(&t, &a, &rich), SearchOutcome::Sat);
        assert_eq!(cache.stats().misses, 2, "richer context answered by starved Unknown");
        // The definitive verdict now answers even tiny-budget callers.
        assert_eq!(cache.satisfiable_cx(&t, &a, &tiny), SearchOutcome::Sat);
    }

    /// Interrupted runs (cancelled or past deadline) must never record an
    /// entry: a later full-budget caller re-proves and gets the real
    /// verdict — no `Unknown` masks it.
    #[test]
    fn interrupted_runs_record_nothing() {
        let (t, a) = starving_tbox();
        let mut cache = SatCache::new();

        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        assert_eq!(cache.satisfiable_cx(&t, &a, &cancelled), SearchOutcome::Cancelled);
        assert_eq!(cache.len(), 0, "cancelled run left an entry behind");
        assert_eq!(cache.stats().cancelled, 1);

        let expired = ExecCx::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(cache.satisfiable_cx(&t, &a, &expired), SearchOutcome::DeadlineExceeded);
        assert_eq!(cache.len(), 0, "deadlined run left an entry behind");
        assert_eq!(cache.stats().deadlined, 1);

        // The provable verdict is still reachable — nothing masked it.
        assert_eq!(cache.satisfiable_cx(&t, &a, &ExecCx::with_steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.len(), 1);
    }

    /// The `Unknown` budget stamp is monotone: it records the *hardest*
    /// failed attempt, so a downgraded (tighter-budget) retry — the
    /// admission layer's overload response — can never weaken it, while
    /// a richer failure upgrades it.
    #[test]
    fn record_unknown_is_monotone_in_budget() {
        let mut cache = SatCache::new();
        let k = cache.key(&Concept::Atomic(0));
        fn stamp(cache: &SatCache, k: &[ConceptId]) -> u64 {
            match cache.entries.get(k) {
                Some(Entry::Unknown { budget }) => *budget,
                other => panic!("expected Unknown, got {:?}", other.is_some()),
            }
        }
        cache.record(k.clone(), DlOutcome::ResourceLimit, 100, None);
        assert_eq!(stamp(&cache, &k), 100);
        // Downgraded retry fails at a tighter budget — stamp unchanged.
        cache.record(k.clone(), DlOutcome::ResourceLimit, 10, None);
        assert_eq!(stamp(&cache, &k), 100, "downgraded run weakened the Unknown stamp");
        // A richer failure upgrades it.
        cache.record(k.clone(), DlOutcome::ResourceLimit, 500, None);
        assert_eq!(stamp(&cache, &k), 500);
        cache.record(k.clone(), DlOutcome::ResourceLimit, 500, None);
        assert_eq!(stamp(&cache, &k), 500);
    }

    /// An `Unknown` must never displace a definitive verdict already in
    /// the cache — not even one claiming an unlimited budget.
    #[test]
    fn unknown_never_replaces_a_definitive_verdict() {
        let mut cache = SatCache::new();
        let k_sat = cache.key(&Concept::Atomic(0));
        let k_unsat = cache.key(&Concept::Atomic(1));
        cache.record(k_sat.clone(), DlOutcome::Sat, 1000, None);
        cache.record(k_unsat.clone(), DlOutcome::Unsat, 1000, None);
        cache.record(k_sat.clone(), DlOutcome::ResourceLimit, u64::MAX, None);
        cache.record(k_unsat.clone(), DlOutcome::ResourceLimit, u64::MAX, None);
        assert!(
            matches!(cache.entries.get(&k_sat), Some(Entry::Sat { .. })),
            "Unknown clobbered a Sat verdict"
        );
        assert!(
            matches!(cache.entries.get(&k_unsat), Some(Entry::Unsat { .. })),
            "Unknown clobbered an Unsat verdict"
        );
    }

    /// Public-API shape of the monotonicity invariant: with `Unknown{50}`
    /// cached, a downgraded 10-step caller short-circuits (hit) and does
    /// not shrink the stamp — a later 50-step caller still hits instead
    /// of re-proving — while a caller above the stamp re-proves and
    /// upgrades the entry to the real verdict for everyone.
    #[test]
    fn downgraded_probe_neither_reproves_nor_weakens() {
        let (t, a) = starving_tbox();
        let mut cache = SatCache::new();
        cache.validate(&t);
        let k = cache.key(&a);
        cache.record(k, DlOutcome::ResourceLimit, 50, None);

        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(10)), SearchOutcome::BudgetExhausted);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(50)), SearchOutcome::BudgetExhausted);
        assert_eq!(
            (cache.stats().hits, cache.stats().misses),
            (2, 0),
            "downgraded probe shrank the stamp: the 50-step caller re-proved"
        );
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.satisfiable_cx(&t, &a, &steps(1)), SearchOutcome::Sat);
    }

    /// The explain/enumerate cx paths obey the same recording rule:
    /// interrupts bump the counters and leave no entry, budget
    /// starvation records a budget-stamped Unknown.
    #[test]
    fn explain_cx_interrupts_record_nothing() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Bottom);
        let mut cache = SatCache::new();

        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        assert_eq!(cache.explain_seeded_cx(&t, &a, &cancelled, &[]), Explanation::ResourceLimit);
        assert_eq!(cache.len(), 0);
        assert!(matches!(
            cache.enumerate_seeded_cx(&t, &a, &cancelled, 4, &[]),
            MusEnumeration::ResourceLimit
        ));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().cancelled, 2);

        // An uninterrupted context certifies the core — and caches it.
        let rich = ExecCx::with_steps(100_000);
        assert!(matches!(cache.explain_seeded_cx(&t, &a, &rich, &[]), Explanation::Unsat(_)));
        assert!(matches!(
            cache.enumerate_seeded_cx(&t, &a, &rich, 4, &[]),
            MusEnumeration::Unsat(_)
        ));
    }

    /// The shard-level wrappers share entries across entry points
    /// and aggregate the new counters.
    #[test]
    fn shards_cx_paths_share_entries_and_counters() {
        let (t, a, b) = ab_tbox();
        let shards = SatShards::new();
        let q = Concept::and([a.clone(), Concept::not(b.clone())]);
        let rich = ExecCx::with_steps(100_000);
        assert_eq!(shards.satisfiable_cx(&t, &q, &rich), SearchOutcome::Unsat);
        // A second context with the same budget hits the proved entry.
        assert_eq!(shards.satisfiable_cx(&t, &q, &steps(100_000)), SearchOutcome::Unsat);
        assert_eq!(shards.subsumes_cx(&t, &b, &a, &rich), Ok(Some(true)));
        assert!(matches!(shards.explain_cx(&t, &q, &rich), Explanation::Unsat(_)));
        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        assert_eq!(shards.satisfiable_cx(&t, &a, &cancelled), SearchOutcome::Cancelled);
        assert_eq!(shards.stats().cancelled, 1);
    }
}
