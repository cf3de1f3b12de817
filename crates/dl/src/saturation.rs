//! A graph-saturation model finder for the non-DL fragment.
//!
//! The DL translation ([`crate::orm_to_dl`]) concedes the same expressivity
//! gap the paper does (footnote 10): ring constraints, value constraints and
//! spanning frequency constraints are reported as *unmapped*, so the tableau
//! can never attribute an unsatisfiability that originates in them. This
//! module adds a third engine beside the trail tableau and the clone-based
//! [`crate::classic`] baseline, in the graph-saturation style of Joosten's
//! model finder (arXiv:1806.09392): grow a small **candidate model graph**
//! by applying saturation rules until fixpoint, then certify the candidate
//! against the full ORM population semantics.
//!
//! The engine decides a query in one of two sound ways — and reports
//! *honest ignorance* otherwise:
//!
//! * **Unsat** comes only from `orm_core`'s doom analysis
//!   ([`orm_core::doom::analyze`]): the paper's unsat-relevant pattern and
//!   extension checks are the seeds, closed under the same propagation the
//!   validator's E3 reports ([`orm_core::doom::close`]). The engine holds
//!   no refutation rule of its own. Every refutation names the seed
//!   findings it follows from ([`Origin`]: the check code plus its culprit
//!   elements) and carries a [`Refutation::beyond_dl`] flag that is `true`
//!   exactly when a deciding check rests on a construct the DL translation
//!   leaves unmapped.
//! * **Sat** comes only from a fully constructed and *certified*
//!   [`Population`]: the saturation loop seeds the target, discharges
//!   mandatory/frequency/subset/totality obligations with ring-aware
//!   partner policies (self-loops, symmetric mates, three-cycles, sinks),
//!   pads proper subtypes, assigns distinct values from the effective
//!   value-constraint intersections, and finally hands the candidate to
//!   the population checker itself ([`check_indexed`] under the default
//!   strict semantics, reusing the engine's schema index) — the one
//!   population semantics every other engine is judged by, not a copy of
//!   it. A candidate the checker rejects is never reported as a verdict.
//! * Everything else — node caps, round caps, exhausted value domains —
//!   surfaces as [`SaturationOutcome::BudgetExhausted`], and an interrupted
//!   run surfaces as `Cancelled`/`DeadlineExceeded`, never as a verdict.
//!
//! Execution control threads the [`ExecCx`] end to end: the engine adapts
//! the context onto the `orm_core::ring::ctl` hook, so the doom analysis
//! (ring-table searches included), the saturation loop and the
//! certification all charge the same meter and observe the same budget,
//! deadline and cancellation token. Each engine memoizes its decided
//! verdicts in one slot per object type and per role; interrupted or
//! undecided runs fill no slot. The memo needs no revision stamp: the
//! engine borrows its [`Schema`], so the schema cannot change while the
//! engine lives.

use crate::exec::{ExecCx, Interrupt, CHECK_INTERVAL};
use crate::tableau::SearchOutcome;
use orm_core::doom::{self, Doom};
use orm_core::ring::ctl::{RingCtl, RingInterrupt};
use orm_core::ring::euler::implied_closure;
use orm_model::population::{check_indexed, CheckOptions, Population};
use orm_model::{
    Constraint, ConstraintId, Element, FactTypeId, ObjectTypeId, RingKind, RingKinds, RoleId,
    Schema, SchemaIndex, SetComparisonKind, Value, ValueConstraint,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

/// Node budget for one candidate model. The saturation rules create at most
/// a handful of structural nodes per fact type (sinks, mates, cycle
/// triples, padding), so hitting this cap means the schema's obligations
/// spiral (e.g. large frequency minima) — the engine then answers
/// `BudgetExhausted` rather than guessing.
const MAX_NODES: usize = 64;

/// Fixpoint-round budget for one candidate model.
const MAX_ROUNDS: usize = 48;

// ---------------------------------------------------------------------------
// ExecCx → RingCtl adapter
// ---------------------------------------------------------------------------

/// Adapts an [`ExecCx`] onto the `orm-core` ring-control hook: steps are
/// batched into the shared meter every [`CHECK_INTERVAL`] units, the
/// cancellation flag is observed on every charge, and the context's
/// per-proof step budget maps to [`RingInterrupt::BudgetExhausted`].
struct CxCtl<'a> {
    cx: &'a ExecCx,
    budget: Option<u64>,
    used: u64,
    pending: u64,
}

impl<'a> CxCtl<'a> {
    fn new(cx: &'a ExecCx) -> Self {
        CxCtl { cx, budget: cx.steps(), used: 0, pending: 0 }
    }

    fn map(i: Interrupt) -> RingInterrupt {
        match i {
            Interrupt::Cancelled => RingInterrupt::Cancelled,
            Interrupt::DeadlineExceeded => RingInterrupt::DeadlineExceeded,
        }
    }
}

impl RingCtl for CxCtl<'_> {
    fn on_step(&mut self, steps: u64) -> Result<(), RingInterrupt> {
        self.used = self.used.saturating_add(steps);
        self.pending = self.pending.saturating_add(steps);
        if let Some(budget) = self.budget {
            if self.used > budget {
                return Err(RingInterrupt::BudgetExhausted);
            }
        }
        if self.pending >= CHECK_INTERVAL {
            let flushed = std::mem::take(&mut self.pending);
            self.cx.check_after(flushed).map_err(Self::map)
        } else {
            self.cx.check().map_err(Self::map)
        }
    }
}

fn interrupted(i: RingInterrupt) -> SaturationOutcome {
    match i {
        RingInterrupt::BudgetExhausted => SaturationOutcome::BudgetExhausted,
        RingInterrupt::Cancelled => SaturationOutcome::Cancelled,
        RingInterrupt::DeadlineExceeded => SaturationOutcome::DeadlineExceeded,
    }
}

// ---------------------------------------------------------------------------
// Refutations
// ---------------------------------------------------------------------------

/// The vocabulary of [`Refutation::origins`], from `orm_core`.
pub use orm_core::{doom::Origin, CheckCode};

/// A refuted target: the seed findings of `orm_core`'s doom analysis it
/// follows from, and whether the argument needed constructs outside the DL
/// fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refutation {
    /// The refuting origins, deduplicated, in check order.
    pub origins: Vec<Origin>,
    /// `true` when at least one deciding origin is unmapped in the DL
    /// translation — i.e. the tableau alone could not have produced this
    /// `Unsat`.
    pub beyond_dl: bool,
}

impl Refutation {
    fn new(schema: &Schema, mut origins: Vec<Origin>) -> Refutation {
        origins.sort();
        origins.dedup();
        let beyond_dl = origins.iter().any(|o| beyond_dl(schema, o));
        Refutation { origins, beyond_dl }
    }

    /// All constraints named by the refutation's origins, deduplicated.
    pub fn constraints(&self) -> Vec<ConstraintId> {
        let mut out: Vec<ConstraintId> =
            self.origins.iter().flat_map(Origin::constraints).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Whether `origin`'s check rests on a construct the DL translation reports
/// as unmapped: value constraints (P4, E1, E2), ring constraints (P8, E2,
/// E5), proper-subtype cycles (P9) and spanning frequencies (P7 on a
/// frequency over both roles of its fact type).
fn beyond_dl(schema: &Schema, origin: &Origin) -> bool {
    match origin.code {
        CheckCode::P4
        | CheckCode::P8
        | CheckCode::P9
        | CheckCode::E1
        | CheckCode::E2
        | CheckCode::E5 => true,
        CheckCode::P7 => origin.constraints().any(|c| {
            matches!(schema.constraint(c), Some(Constraint::Frequency(f)) if f.roles.len() == 2)
        }),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// The candidate model
// ---------------------------------------------------------------------------

/// Outcome of one saturation query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SaturationOutcome {
    /// A finite model populating the target, certified by the population
    /// checker.
    Sat(Population),
    /// The target is provably unpopulatable; the refutation names the
    /// responsible constraints.
    Unsat(Refutation),
    /// The engine ran out of budget (steps, nodes, rounds, or value domain)
    /// before deciding — honest ignorance, never a verdict.
    BudgetExhausted,
    /// The context's cancellation token tripped mid-run.
    Cancelled,
    /// The context's wall-clock deadline passed mid-run.
    DeadlineExceeded,
}

impl SaturationOutcome {
    /// Collapse to the engine-agnostic [`SearchOutcome`] vocabulary.
    pub fn verdict(&self) -> SearchOutcome {
        match self {
            SaturationOutcome::Sat(_) => SearchOutcome::Sat,
            SaturationOutcome::Unsat(_) => SearchOutcome::Unsat,
            SaturationOutcome::BudgetExhausted => SearchOutcome::BudgetExhausted,
            SaturationOutcome::Cancelled => SearchOutcome::Cancelled,
            SaturationOutcome::DeadlineExceeded => SearchOutcome::DeadlineExceeded,
        }
    }

    /// Whether the outcome is a genuine verdict (`Sat` or `Unsat`).
    pub fn is_decided(&self) -> bool {
        matches!(self, SaturationOutcome::Sat(_) | SaturationOutcome::Unsat(_))
    }
}

// ---------------------------------------------------------------------------
// Candidate construction (the Sat side)
// ---------------------------------------------------------------------------

/// What a saturation query asks to populate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SaturationTarget {
    /// Populate an object type.
    Type(ObjectTypeId),
    /// Populate a role (hence its whole fact type).
    Role(RoleId),
}

/// The in-progress candidate: anonymous nodes with type-label sets, and
/// node-pair edges per fact type. Values are assigned only once the graph
/// reaches fixpoint, so label growth never invalidates earlier choices.
struct Candidate<'a> {
    schema: &'a Schema,
    idx: &'a SchemaIndex,
    labels: Vec<BTreeSet<ObjectTypeId>>,
    edges: BTreeMap<FactTypeId, BTreeSet<(usize, usize)>>,
    sinks: HashMap<(FactTypeId, u8), usize>,
    mates: HashMap<FactTypeId, usize>,
    cycles: HashMap<FactTypeId, [usize; 3]>,
    padded: BTreeSet<(ObjectTypeId, ObjectTypeId)>,
    ring_decl: HashMap<FactTypeId, RingKinds>,
    ring_clo: HashMap<FactTypeId, RingKinds>,
    stuck: bool,
}

impl<'a> Candidate<'a> {
    fn new(schema: &'a Schema, idx: &'a SchemaIndex) -> Candidate<'a> {
        let mut ring_decl = HashMap::new();
        let mut ring_clo = HashMap::new();
        for (fact, kinds, _) in idx.ring_kinds_by_fact(schema) {
            ring_decl.insert(fact, kinds);
            ring_clo.insert(fact, implied_closure(kinds));
        }
        Candidate {
            schema,
            idx,
            labels: Vec::new(),
            edges: BTreeMap::new(),
            sinks: HashMap::new(),
            mates: HashMap::new(),
            cycles: HashMap::new(),
            padded: BTreeSet::new(),
            ring_decl,
            ring_clo,
            stuck: false,
        }
    }

    fn add_node(&mut self, seed: impl IntoIterator<Item = ObjectTypeId>) -> usize {
        let mut labels = BTreeSet::new();
        for t in seed {
            labels.extend(self.idx.supers_refl(t));
        }
        self.labels.push(labels);
        if self.labels.len() > MAX_NODES {
            self.stuck = true;
        }
        self.labels.len() - 1
    }

    fn extend_labels(&mut self, n: usize, ty: ObjectTypeId) {
        let closure = self.idx.supers_refl(ty);
        self.labels[n].extend(closure);
    }

    fn edge(&mut self, fact: FactTypeId, a: usize, b: usize) {
        self.edges.entry(fact).or_default().insert((a, b));
    }

    fn plays(&self, n: usize, role: RoleId) -> bool {
        let r = self.schema.role(role);
        let Some(tuples) = self.edges.get(&r.fact_type()) else { return false };
        tuples.iter().any(|&(a, b)| if r.position() == 0 { a == n } else { b == n })
    }

    fn fingerprint(&self) -> (usize, usize, usize, usize) {
        (
            self.labels.len(),
            self.labels.iter().map(BTreeSet::len).sum(),
            self.edges.values().map(BTreeSet::len).sum(),
            self.padded.len(),
        )
    }

    /// The shared structural partner at one position of a fact type,
    /// created on first use. Only for facts whose partner column carries no
    /// per-value cap (no single-role uniqueness or frequency maximum).
    fn sink(&mut self, fact: FactTypeId, position: u8) -> usize {
        if let Some(&n) = self.sinks.get(&(fact, position)) {
            return n;
        }
        let player = self.schema.player(self.schema.fact_type(fact).role_at(position));
        let n = self.add_node([player]);
        self.sinks.insert((fact, position), n);
        n
    }

    /// Whether the column of `role` may receive repeated entries without a
    /// checker complaint (drives sink sharing vs fresh partners).
    fn column_capped(&self, role: RoleId) -> bool {
        !self.idx.uniqueness_on(&[role]).is_empty()
            || self.idx.frequencies.iter().any(|(_, f)| f.roles.len() == 1 && f.roles[0] == role)
    }

    /// The symmetric mate of a ring fact, distinct from `not` (so a node is
    /// never its own partner).
    fn mate(&mut self, fact: FactTypeId, not: usize) -> usize {
        if let Some(&m) = self.mates.get(&fact) {
            if m != not {
                return m;
            }
        }
        let ft = self.schema.fact_type(fact);
        let (p0, p1) = (self.schema.player(ft.first()), self.schema.player(ft.second()));
        let m = self.add_node([p0, p1]);
        self.mates.insert(fact, m);
        m
    }

    /// The three-node directed cycle of a ring fact (for trapped mandatory
    /// roles on non-acyclic rings), created on first use.
    fn cycle(&mut self, fact: FactTypeId) -> [usize; 3] {
        if let Some(&c) = self.cycles.get(&fact) {
            return c;
        }
        let ft = self.schema.fact_type(fact);
        let (p0, p1) = (self.schema.player(ft.first()), self.schema.player(ft.second()));
        let c = [self.add_node([p0, p1]), self.add_node([p0, p1]), self.add_node([p0, p1])];
        self.edge(fact, c[0], c[1]);
        self.edge(fact, c[1], c[2]);
        self.edge(fact, c[2], c[0]);
        self.cycles.insert(fact, c);
        c
    }

    /// Make node `n` play `role`, choosing a ring-aware partner policy.
    fn ensure_plays(
        &mut self,
        n: usize,
        role: RoleId,
        ctl: &mut dyn RingCtl,
    ) -> Result<(), RingInterrupt> {
        ctl.on_step(1)?;
        if self.stuck || self.plays(n, role) {
            return Ok(());
        }
        let r = self.schema.role(role);
        let fact = r.fact_type();
        let pos = r.position();
        let player = self.schema.player(role);
        let co = self.schema.co_role(role);
        let co_player = self.schema.player(co);
        let clo = self.ring_clo.get(&fact).copied().unwrap_or(RingKinds::EMPTY);
        let trapped = self.idx.is_subtype_of_or_eq(co_player, player);

        let oriented = |this: &mut Self, a: usize| {
            if pos == 0 {
                this.edge(fact, n, a);
            } else {
                this.edge(fact, a, n);
            }
        };

        if clo.is_empty() {
            if trapped {
                // No ring semantics forbid a self-loop, and a partner of the
                // same subtree would just re-raise the obligation.
                self.extend_labels(n, co_player);
                self.edge(fact, n, n);
            } else if self.column_capped(co) {
                let partner = self.add_node([co_player]);
                oriented(self, partner);
            } else {
                let partner = self.sink(fact, self.schema.role(co).position());
                oriented(self, partner);
            }
            return Ok(());
        }

        // Ring fact: the closure decides which shapes stay legal.
        let self_loop_ok = !clo.contains(RingKind::Irreflexive)
            && !clo.contains(RingKind::Asymmetric)
            && !clo.contains(RingKind::Acyclic)
            && !clo.contains(RingKind::Intransitive);
        if self_loop_ok {
            // kinds ⊆ {antisymmetric, symmetric}: a loop satisfies both.
            self.extend_labels(n, player);
            self.extend_labels(n, co_player);
            self.edge(fact, n, n);
        } else if clo.contains(RingKind::Symmetric) {
            // Mutual pair with a dedicated mate; legal for the remaining
            // compatible symmetric combinations (sym+ir, sym+it, …).
            let m = self.mate(fact, n);
            self.extend_labels(n, player);
            self.extend_labels(n, co_player);
            self.edge(fact, n, m);
            self.edge(fact, m, n);
        } else if !trapped {
            // A one-directional edge to a partner outside the player's
            // subtree satisfies every non-symmetric kind.
            if self.column_capped(co) {
                let partner = self.add_node([co_player]);
                oriented(self, partner);
            } else {
                let partner = self.sink(fact, self.schema.role(co).position());
                oriented(self, partner);
            }
        } else {
            // Trapped (partner drawn from the player's own subtree) and no
            // self-loop or mutual pair available. A fresh partner works as
            // long as nothing forces that partner to play in turn.
            let forced =
                self.idx.mandatory_on(role).is_some() || self.idx.mandatory_on(co).is_some();
            if !forced {
                let partner = self.add_node([co_player]);
                oriented(self, partner);
            } else if clo.contains(RingKind::Acyclic) {
                // Trapped acyclic mandatory: Extension 5 territory — the
                // doom analysis normally catches this; a disjunctive variant
                // that slips through is honestly undecidable here.
                self.stuck = true;
            } else {
                // Forced, non-symmetric, non-acyclic: attach to a shared
                // three-cycle (legal for ir/ans/as/it).
                let c = self.cycle(fact);
                self.extend_labels(n, player);
                self.extend_labels(n, co_player);
                if c.contains(&n) {
                    return Ok(());
                }
                if pos == 0 {
                    self.edge(fact, n, c[0]);
                } else {
                    self.edge(fact, c[2], n);
                }
            }
        }
        Ok(())
    }

    fn apply_totality(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        for (_, c) in self.schema.constraints() {
            let Constraint::TotalSubtypes(t) = c else { continue };
            ctl.on_step(1)?;
            if t.subtypes.is_empty() {
                continue;
            }
            for n in 0..self.labels.len() {
                if self.labels[n].contains(&t.supertype)
                    && !t.subtypes.iter().any(|s| self.labels[n].contains(s))
                {
                    self.extend_labels(n, t.subtypes[0]);
                }
            }
        }
        Ok(())
    }

    fn apply_mandatory(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        for (_, c) in self.schema.constraints() {
            let Constraint::Mandatory(m) = c else { continue };
            ctl.on_step(1)?;
            let player = self.schema.player(m.roles[0]);
            for n in 0..self.labels.len() {
                if !self.labels[n].contains(&player) {
                    continue;
                }
                if m.roles.iter().any(|r| self.plays(n, *r)) {
                    continue;
                }
                self.ensure_plays(n, m.roles[0], ctl)?;
                if self.stuck {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn apply_symmetry(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        let facts: Vec<FactTypeId> = self
            .ring_decl
            .iter()
            .filter(|(_, k)| k.contains(RingKind::Symmetric))
            .map(|(f, _)| *f)
            .collect();
        for fact in facts {
            ctl.on_step(1)?;
            let Some(tuples) = self.edges.get(&fact) else { continue };
            let missing: Vec<(usize, usize)> =
                tuples.iter().filter(|(a, b)| !tuples.contains(&(*b, *a))).copied().collect();
            let ft = self.schema.fact_type(fact);
            let (p0, p1) = (self.schema.player(ft.first()), self.schema.player(ft.second()));
            for (a, b) in missing {
                self.extend_labels(b, p0);
                self.extend_labels(a, p1);
                self.edge(fact, b, a);
            }
        }
        Ok(())
    }

    fn apply_frequency(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        let frequencies = self.idx.frequencies.clone();
        for (_, f) in &frequencies {
            if f.roles.len() != 1 || f.min <= 1 {
                continue;
            }
            ctl.on_step(1)?;
            let role = f.roles[0];
            let r = self.schema.role(role);
            let (fact, pos) = (r.fact_type(), r.position());
            let co_player = self.schema.player(self.schema.co_role(role));
            let participants: Vec<usize> =
                (0..self.labels.len()).filter(|&n| self.plays(n, role)).collect();
            for n in participants {
                loop {
                    ctl.on_step(1)?;
                    let count = self
                        .edges
                        .get(&fact)
                        .map(|t| {
                            t.iter()
                                .filter(|&&(a, b)| if pos == 0 { a == n } else { b == n })
                                .count()
                        })
                        .unwrap_or(0);
                    if count >= f.min as usize {
                        break;
                    }
                    if self.labels.len() >= MAX_NODES {
                        self.stuck = true;
                        return Ok(());
                    }
                    let partner = self.add_node([co_player]);
                    if pos == 0 {
                        self.edge(fact, n, partner);
                    } else {
                        self.edge(fact, partner, n);
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_set_comparisons(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        let constraints: Vec<orm_model::SetComparison> = self
            .schema
            .constraints()
            .filter_map(|(_, c)| match c {
                Constraint::SetComparison(sc) if sc.kind != SetComparisonKind::Exclusion => {
                    Some(sc.clone())
                }
                _ => None,
            })
            .collect();
        for sc in &constraints {
            ctl.on_step(1)?;
            let pairs: Vec<(usize, usize)> = match sc.kind {
                SetComparisonKind::Subset => vec![(0, 1)],
                SetComparisonKind::Equality => (0..sc.args.len())
                    .flat_map(|i| (0..sc.args.len()).filter(move |&j| j != i).map(move |j| (i, j)))
                    .collect(),
                SetComparisonKind::Exclusion => Vec::new(),
            };
            for (si, ti) in pairs {
                let (sub, sup) = (&sc.args[si], &sc.args[ti]);
                if sub.is_single() {
                    let (ra, rb) = (sub.roles()[0], sup.roles()[0]);
                    let pb = self.schema.player(rb);
                    for n in 0..self.labels.len() {
                        if self.plays(n, ra) && !self.plays(n, rb) {
                            self.extend_labels(n, pb);
                            self.ensure_plays(n, rb, ctl)?;
                            if self.stuck {
                                return Ok(());
                            }
                        }
                    }
                } else {
                    // Whole-predicate inclusion: copy each oriented tuple.
                    let read = |this: &Self, seq: &orm_model::RoleSeq| -> Vec<(usize, usize)> {
                        let first = this.schema.role(seq.roles()[0]);
                        let tuples = this.edges.get(&first.fact_type());
                        tuples
                            .into_iter()
                            .flatten()
                            .map(|&(a, b)| if first.position() == 0 { (a, b) } else { (b, a) })
                            .collect()
                    };
                    let have: BTreeSet<(usize, usize)> = read(self, sup).into_iter().collect();
                    let want: Vec<(usize, usize)> =
                        read(self, sub).into_iter().filter(|t| !have.contains(t)).collect();
                    let first = self.schema.role(sup.roles()[0]);
                    let (fact, pos) = (first.fact_type(), first.position());
                    let (q0, q1) =
                        (self.schema.player(sup.roles()[0]), self.schema.player(sup.roles()[1]));
                    for (x, y) in want {
                        ctl.on_step(1)?;
                        self.extend_labels(x, q0);
                        self.extend_labels(y, q1);
                        if pos == 0 {
                            self.edge(fact, x, y);
                        } else {
                            self.edge(fact, y, x);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_padding(&mut self, ctl: &mut dyn RingCtl) -> Result<(), RingInterrupt> {
        let links: Vec<(ObjectTypeId, ObjectTypeId)> =
            self.schema.subtype_links().map(|l| (l.sub, l.sup)).collect();
        for (sub, sup) in links {
            ctl.on_step(1)?;
            if self.padded.contains(&(sub, sup)) {
                continue;
            }
            let sub_nodes: BTreeSet<usize> =
                (0..self.labels.len()).filter(|&n| self.labels[n].contains(&sub)).collect();
            let sup_nodes: BTreeSet<usize> =
                (0..self.labels.len()).filter(|&n| self.labels[n].contains(&sup)).collect();
            if !sub_nodes.is_empty() && sub_nodes == sup_nodes {
                // Proper-subtype semantics needs a supertype-only witness.
                self.add_node([sup]);
                self.padded.insert((sub, sup));
            }
        }
        Ok(())
    }

    /// Assign one distinct value per node: drawn from the effective
    /// value-constraint intersection of its labels when one exists, synthetic
    /// otherwise. Returns `None` when a value domain is exhausted.
    fn assign_values(&self) -> Option<Population> {
        let mut used: BTreeSet<Value> = BTreeSet::new();
        let mut values: Vec<Value> = Vec::with_capacity(self.labels.len());
        for (i, labels) in self.labels.iter().enumerate() {
            let mut merged: Option<ValueConstraint> = None;
            for t in labels {
                if let Some(vc) = self.schema.object_type(*t).value_constraint() {
                    merged = Some(match merged {
                        None => vc.clone(),
                        Some(acc) => acc.intersect(vc),
                    });
                }
            }
            let value = match merged {
                Some(vc) => vc.iter_values().find(|v| !used.contains(v))?,
                None => Value::str(format!("~e{i}")),
            };
            used.insert(value.clone());
            values.push(value);
        }
        let mut pop = Population::new();
        for (n, labels) in self.labels.iter().enumerate() {
            for t in labels {
                pop.add_instance(*t, values[n].clone());
            }
        }
        for (fact, tuples) in &self.edges {
            for &(a, b) in tuples {
                pop.add_fact(*fact, values[a].clone(), values[b].clone());
            }
        }
        Some(pop)
    }

    /// Run the saturation loop to fixpoint and hand back its valued population.
    fn saturate(&mut self, ctl: &mut dyn RingCtl) -> Result<Option<Population>, RingInterrupt> {
        for _round in 0..MAX_ROUNDS {
            ctl.on_step(1)?;
            let before = self.fingerprint();
            self.apply_totality(ctl)?;
            self.apply_mandatory(ctl)?;
            self.apply_symmetry(ctl)?;
            self.apply_frequency(ctl)?;
            self.apply_set_comparisons(ctl)?;
            self.apply_padding(ctl)?;
            if self.stuck {
                return Ok(None);
            }
            if self.fingerprint() == before {
                return Ok(self.assign_values());
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Verification — the population checker itself
// ---------------------------------------------------------------------------

/// Steps a candidate's certification is charged before the checker runs:
/// one per populated fact table, populated extent, subtype link, pair of
/// populated types and constraint, plus one per ring kind on a populated
/// fact table. Charging them keeps budgets and cancellation bounding
/// verification as they bound saturation.
fn verification_steps(schema: &Schema, pop: &Population) -> u64 {
    let facts = schema.fact_types().filter(|(f, _)| pop.fact_count(*f) > 0).count();
    let types = schema.object_types().filter(|(t, _)| pop.type_populated(*t)).count();
    let ring_kinds: usize = schema
        .constraints()
        .filter_map(|(_, c)| match c {
            Constraint::Ring(r) if pop.fact_count(r.fact_type) > 0 => Some(r.kinds.len()),
            _ => None,
        })
        .sum();
    let items = facts
        + types
        + schema.subtype_links().count()
        + types * types.saturating_sub(1) / 2
        + schema.constraints().count()
        + ring_kinds;
    items as u64
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// A genuine verdict, as the engine memoizes it.
#[derive(Clone)]
enum Decided {
    Sat(Population),
    Unsat(Refutation),
}

impl From<Decided> for SaturationOutcome {
    fn from(decided: Decided) -> SaturationOutcome {
        match decided {
            Decided::Sat(pop) => SaturationOutcome::Sat(pop),
            Decided::Unsat(refutation) => SaturationOutcome::Unsat(refutation),
        }
    }
}

/// The graph-saturation model finder.
///
/// Construction is cheap; the doom analysis runs lazily on the first query
/// and is shared by every later one (including parallel sweeps — the engine
/// is `Sync`). Decided verdicts are memoized in one slot per object type
/// and per role. The engine borrows its schema for its whole life, so the
/// schema cannot change under a memoized verdict:
///
/// ```compile_fail,E0502
/// use orm_dl::{ExecCx, SaturationEngine};
/// use orm_model::SchemaBuilder;
///
/// let mut b = SchemaBuilder::new("s");
/// let a = b.entity_type("A").unwrap();
/// let mut schema = b.finish();
/// let engine = SaturationEngine::new(&schema);
/// engine.check_type(a, &ExecCx::unlimited());
/// schema.set_value_constraint(a, None); // error: `schema` is still borrowed by `engine`
/// engine.check_type(a, &ExecCx::unlimited());
/// ```
///
/// See the module docs for the soundness contract.
pub struct SaturationEngine<'s> {
    schema: &'s Schema,
    idx: SchemaIndex,
    doom: OnceLock<Doom>,
    /// Memoized verdicts, indexed by [`ObjectTypeId::index`].
    types: Vec<OnceLock<Decided>>,
    /// Memoized verdicts, indexed by [`RoleId::index`].
    roles: Vec<OnceLock<Decided>>,
}

impl<'s> SaturationEngine<'s> {
    /// An engine over `schema`, with an empty verdict memo.
    pub fn new(schema: &'s Schema) -> SaturationEngine<'s> {
        SaturationEngine {
            schema,
            idx: schema.index(),
            doom: OnceLock::new(),
            types: (0..schema.object_type_count()).map(|_| OnceLock::new()).collect(),
            roles: (0..schema.role_count()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The schema index the engine operates on.
    pub fn index(&self) -> &SchemaIndex {
        &self.idx
    }

    fn slot(&self, target: SaturationTarget) -> &OnceLock<Decided> {
        match target {
            SaturationTarget::Type(t) => &self.types[t.index()],
            SaturationTarget::Role(r) => &self.roles[r.index()],
        }
    }

    /// Decide whether `target` can be populated, under `cx` control.
    pub fn check(&self, target: SaturationTarget, cx: &ExecCx) -> SaturationOutcome {
        // An expired or cancelled context returns its interrupt before the
        // memo is even probed: interrupted runs never produce a verdict.
        if let Err(i) = cx.check() {
            return interrupted(CxCtl::map(i));
        }
        let slot = self.slot(target);
        if let Some(decided) = slot.get() {
            return decided.clone().into();
        }
        let mut ctl = CxCtl::new(cx);
        let doom = if let Some(d) = self.doom.get() {
            d
        } else {
            match doom::analyze(self.schema, &self.idx, &mut ctl) {
                Ok(d) => self.doom.get_or_init(|| d),
                Err(i) => return interrupted(i),
            }
        };
        let element = match target {
            SaturationTarget::Type(t) => Element::ObjectType(t),
            SaturationTarget::Role(r) => Element::Role(r),
        };
        if let Some(origins) = doom.origins(element) {
            let refutation = Refutation::new(self.schema, origins.cloned().collect());
            let _ = slot.set(Decided::Unsat(refutation.clone()));
            cx.note_proof();
            return SaturationOutcome::Unsat(refutation);
        }
        let mut candidate = Candidate::new(self.schema, &self.idx);
        match target {
            SaturationTarget::Type(t) => {
                candidate.add_node([t]);
            }
            SaturationTarget::Role(r) => {
                let n = candidate.add_node([self.schema.player(r)]);
                if let Err(i) = candidate.ensure_plays(n, r, &mut ctl) {
                    return interrupted(i);
                }
            }
        }
        match candidate.saturate(&mut ctl) {
            Err(i) => interrupted(i),
            Ok(None) => SaturationOutcome::BudgetExhausted,
            Ok(Some(pop)) => {
                if let Err(i) = ctl.on_step(verification_steps(self.schema, &pop)) {
                    return interrupted(i);
                }
                // A candidate the checker rejects is no verdict at all: Sat
                // needs a certified witness, Unsat a refutation.
                if !check_indexed(self.schema, &self.idx, &pop, CheckOptions::default()).is_empty()
                {
                    return SaturationOutcome::BudgetExhausted;
                }
                let _ = slot.set(Decided::Sat(pop.clone()));
                cx.note_proof();
                SaturationOutcome::Sat(pop)
            }
        }
    }

    /// [`check`](Self::check) for an object type.
    pub fn check_type(&self, ty: ObjectTypeId, cx: &ExecCx) -> SaturationOutcome {
        self.check(SaturationTarget::Type(ty), cx)
    }

    /// [`check`](Self::check) for a role.
    pub fn check_role(&self, role: RoleId, cx: &ExecCx) -> SaturationOutcome {
        self.check(SaturationTarget::Role(role), cx)
    }

    /// Sequentially decide every object type.
    pub fn type_sweep(&self, cx: &ExecCx) -> Vec<(ObjectTypeId, SaturationOutcome)> {
        self.schema.object_types().map(|(id, _)| (id, self.check_type(id, cx))).collect()
    }

    /// Sequentially decide every role.
    pub fn role_sweep(&self, cx: &ExecCx) -> Vec<(RoleId, SaturationOutcome)> {
        self.schema.roles().map(|(id, _)| (id, self.check_role(id, cx))).collect()
    }

    /// Decide every object type on a work-stealing fan-out under `cx`.
    pub fn type_sweep_par(
        &self,
        threads: usize,
        cx: &ExecCx,
    ) -> crate::par::Batch<SaturationOutcome> {
        let ids: Vec<ObjectTypeId> = self.schema.object_types().map(|(id, _)| id).collect();
        crate::par::fan_out_cx(&ids, threads, cx, |_, id| self.check_type(*id, cx))
    }

    /// Decide every role on a work-stealing fan-out under `cx`.
    pub fn role_sweep_par(
        &self,
        threads: usize,
        cx: &ExecCx,
    ) -> crate::par::Batch<SaturationOutcome> {
        let ids: Vec<RoleId> = self.schema.roles().map(|(id, _)| id).collect();
        crate::par::fan_out_cx(&ids, threads, cx, |_, id| self.check_role(*id, cx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::population::check;
    use orm_model::{RingKind, SchemaBuilder};
    use std::time::Duration;

    fn ring_schema(kinds: &[RingKind]) -> Schema {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("Woman").unwrap();
        let f = b
            .fact_type_full("sister_of", (w, Some("r1")), (w, Some("r2")), Some("is sister of"))
            .unwrap();
        b.ring(f, kinds.iter().copied()).unwrap();
        b.finish()
    }

    fn first_role(schema: &Schema) -> RoleId {
        schema.roles().next().unwrap().0
    }

    #[test]
    fn pre_cancelled_context_interrupts_before_any_verdict() {
        let s = ring_schema(&[RingKind::Irreflexive]);
        let engine = SaturationEngine::new(&s);
        let cx = ExecCx::unlimited();
        cx.cancel();
        let out = engine.check_role(first_role(&s), &cx);
        assert!(matches!(out, SaturationOutcome::Cancelled), "{out:?}");
        // Nothing was recorded, and no proof was charged.
        assert!(engine.slot(SaturationTarget::Role(first_role(&s))).get().is_none());
        assert_eq!(cx.meter().proofs(), 0);
    }

    #[test]
    fn pre_expired_deadline_interrupts_before_any_verdict() {
        let s = ring_schema(&[RingKind::Acyclic, RingKind::Symmetric]);
        let engine = SaturationEngine::new(&s);
        let cx = ExecCx::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let out = engine.check_role(first_role(&s), &cx);
        assert!(matches!(out, SaturationOutcome::DeadlineExceeded), "{out:?}");
    }

    #[test]
    fn tiny_step_budget_exhausts_instead_of_deciding() {
        let s = ring_schema(&[RingKind::Acyclic, RingKind::Symmetric]);
        let engine = SaturationEngine::new(&s);
        let out = engine.check_role(first_role(&s), &ExecCx::with_steps(1));
        assert!(matches!(out, SaturationOutcome::BudgetExhausted), "{out:?}");
    }

    #[test]
    fn incompatible_ring_is_unsat_beyond_dl() {
        let s = ring_schema(&[RingKind::Acyclic, RingKind::Symmetric]);
        let engine = SaturationEngine::new(&s);
        let out = engine.check_role(first_role(&s), &ExecCx::unlimited());
        let SaturationOutcome::Unsat(refutation) = out else {
            panic!("expected Unsat, got {out:?}");
        };
        assert!(refutation.beyond_dl);
        assert!(refutation.origins.iter().any(|o| o.code == CheckCode::P8));
        assert!(!refutation.constraints().is_empty());
        // The type itself survives — only the roles are doomed.
        let ty = s.object_types().next().unwrap().0;
        assert!(matches!(engine.check_type(ty, &ExecCx::unlimited()), SaturationOutcome::Sat(_)));
    }

    #[test]
    fn single_ring_kinds_are_sat_with_verified_witness() {
        for kind in RingKind::ALL {
            let s = ring_schema(&[kind]);
            let engine = SaturationEngine::new(&s);
            let out = engine.check_role(first_role(&s), &ExecCx::unlimited());
            let SaturationOutcome::Sat(pop) = out else {
                panic!("{kind}: expected Sat, got {out:?}");
            };
            assert!(pop.role_populated(&s, first_role(&s)), "{kind}: witness unpopulated");
            assert!(
                check(&s, &pop, CheckOptions::default()).is_empty(),
                "{kind}: witness fails verification"
            );
        }
    }

    #[test]
    fn acyclic_mandatory_trap_is_unsat_with_ring_mandatory_origin() {
        // Extension 5: acyclic ring + mandatory role over the same subtree.
        let mut b = SchemaBuilder::new("s");
        let e = b.entity_type("Employee").unwrap();
        let f = b
            .fact_type_full("reports_to", (e, Some("r1")), (e, Some("r2")), Some("reports to"))
            .unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let r1 = b.schema().fact_type(f).first();
        b.mandatory(r1).unwrap();
        let s = b.finish();
        let engine = SaturationEngine::new(&s);
        let out = engine.check_type(e, &ExecCx::unlimited());
        let SaturationOutcome::Unsat(refutation) = out else {
            panic!("expected Unsat, got {out:?}");
        };
        assert!(refutation.beyond_dl);
        assert!(refutation.origins.iter().any(|o| o.code == CheckCode::E5));
    }

    #[test]
    fn plain_schema_is_sat_and_verdicts_are_cached() {
        let s = ring_schema(&[RingKind::Asymmetric]);
        let engine = SaturationEngine::new(&s);
        let role = first_role(&s);
        let cx = ExecCx::unlimited();
        let first = engine.check_role(role, &cx);
        assert!(first.is_decided());
        assert_eq!(cx.meter().proofs(), 1);
        // The re-ask is answered from the memo: no second proof.
        let second = engine.check_role(role, &cx);
        assert_eq!(first, second);
        assert_eq!(cx.meter().proofs(), 1);
    }

    #[test]
    fn sweeps_sequential_and_parallel_agree() {
        let s = ring_schema(&[RingKind::Acyclic, RingKind::Symmetric]);
        let engine = SaturationEngine::new(&s);
        let cx = ExecCx::unlimited();
        let seq = engine.role_sweep(&cx);
        let par = engine.role_sweep_par(2, &cx);
        assert!(par.is_complete());
        for ((_, a), b) in seq.iter().zip(par.results.iter()) {
            assert_eq!(a.verdict(), b.as_ref().unwrap().verdict());
        }
    }
}
