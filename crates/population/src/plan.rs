//! Compile-once bulk conformance: a certified [`CheckPlan`] lowering a
//! schema's constraints into vectorized primitives over a
//! [`ColumnarPopulation`].
//!
//! The paper's reasoning services are schema-level; populations only enter
//! as witnesses. Serving data-scale validation with the per-violation
//! checker ([`crate::check`]) would put `BTreeSet` probes and per-row
//! dispatch on the hot path for every row. Following the query-rewriting
//! idea (certify once, then answer with no reasoning on the data path),
//! [`CheckPlan::compile`] runs the tableau **once** — a type sweep through
//! the [`Translation`]'s verdict cache — and freezes the constraint set
//! into a flat op list:
//!
//! * mandatory → sorted-scan of the player extent against role bitsets;
//! * uniqueness/frequency → group-count runs over sorted tuple columns;
//! * exclusion (explicit, implicit, set-comparison) → bitset intersection
//!   and sorted-merge intersection;
//! * subset/subtype/totality → bitset containment scans;
//! * value/conformity → columnar scans with bitset probes;
//! * ring → the checker's own [`crate::ring_witness`] over the sorted
//!   tuple column, so ring witnesses match by construction.
//!
//! The plan is **keyed on the schema revision and the TBox cache stamp**
//! (the PR 4 invalidation tokens): any schema edit bumps one of them and
//! [`CheckPlan::is_current`] turns false, exactly like a stale verdict
//! cache entry. Execution streams into the ordinary [`Violation`] type, so
//! diagnostics and rendering work unchanged — and the compiled engine is
//! differential-tested to report *exactly* the same violation sequence as
//! [`crate::check`] (see `tests/bulk_conformance.rs`).

use crate::columnar::ColumnarPopulation;
use crate::{ring_witness, CheckOptions, Population, Violation};
use orm_dl::exec::ExecCx;
use orm_dl::orm_to_dl::Translation;
use orm_dl::tableau::SearchOutcome;
use orm_model::{
    Constraint, ConstraintId, FactTypeId, ObjectTypeId, RingKinds, RoleId, Schema,
    SetComparisonKind, Value,
};

/// One vectorized check, compiled from a schema constraint (or from an
/// implicit semantic rule such as conformity or implicit type exclusion).
#[derive(Clone, Debug)]
enum CheckOp {
    /// Every tuple value must conform to its role player's extent.
    Conformity { fact: FactTypeId, roles: [RoleId; 2], players: [ObjectTypeId; 2] },
    /// Extent values must be admitted by the type's value constraint.
    ValueDomain { ty: ObjectTypeId },
    /// Subtype extent ⊆ supertype extent.
    SubtypeSubset { sub: ObjectTypeId, sup: ObjectTypeId },
    /// Strict-subset semantics: non-empty subtype extent ≠ supertype's.
    SubtypeProper { sub: ObjectTypeId, sup: ObjectTypeId },
    /// Implicit exclusion of a type pair with no common supertype.
    ImplicitExclusion { a: ObjectTypeId, b: ObjectTypeId },
    /// Every player instance plays at least one covered role.
    Mandatory { constraint: ConstraintId, player: ObjectTypeId, roles: Vec<RoleId> },
    /// Group-count bounds over a projection of one fact table
    /// (uniqueness is `min = max = 1`).
    GroupCount {
        constraint: ConstraintId,
        fact: FactTypeId,
        positions: Vec<u8>,
        min: u32,
        max: Option<u32>,
        is_uniqueness: bool,
    },
    /// Subset / equality / exclusion over role-sequence populations.
    SetCompare { constraint: ConstraintId, kind: SetComparisonKind, args: Vec<SeqSpec> },
    /// Pairwise-disjoint type extents.
    ExclusiveTypes { constraint: ConstraintId, types: Vec<ObjectTypeId> },
    /// Supertype extent covered by the union of subtype extents.
    Totality { constraint: ConstraintId, supertype: ObjectTypeId, subtypes: Vec<ObjectTypeId> },
    /// Ring properties of one fact table.
    Ring { constraint: ConstraintId, fact: FactTypeId, kinds: RingKinds },
}

/// A compiled role sequence: a single role's projection column, or a
/// permutation of a fact table's two columns.
#[derive(Clone, Debug)]
enum SeqSpec {
    Single(RoleId),
    Pair { fact: FactTypeId, positions: [u8; 2] },
}

/// A compiled, certified constraint-check plan (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct CheckPlan {
    schema_revision: u64,
    tbox_stamp: (u64, u64),
    options: CheckOptions,
    ops: Vec<CheckOp>,
    /// Whether the compile-time tableau sweep proved every object type
    /// satisfiable (the "certified Sat" verdict the plan rides on).
    certified_sat: bool,
    /// Object types the sweep proved *unsatisfiable*: any population
    /// giving them a non-empty extent is doomed before execution starts.
    unsat_types: Vec<ObjectTypeId>,
}

impl CheckPlan {
    /// Compile `schema`'s constraints into a plan, certifying the schema
    /// through `translation`'s tableau (one cached type sweep under `cx`).
    /// A sweep that `cx` interrupts certifies nothing it did not prove: the
    /// plan is then not `certified_sat`, and `unsat_types` lists only the
    /// types proved unsatisfiable. The plan is stamped with the schema
    /// revision and the TBox cache stamp so later edits invalidate it.
    pub fn compile(
        schema: &Schema,
        translation: &Translation,
        cx: &ExecCx,
        options: CheckOptions,
    ) -> CheckPlan {
        let sweep = translation.type_sweep_cx(schema, cx);
        let certified_sat = sweep.iter().all(|(_, o)| *o == SearchOutcome::Sat);
        let unsat_types: Vec<ObjectTypeId> =
            sweep.iter().filter(|(_, o)| *o == SearchOutcome::Unsat).map(|(ty, _)| *ty).collect();

        let idx = schema.index();
        let mut ops = Vec::new();
        // Op order mirrors `crate::check` exactly: the differential tests
        // compare full violation sequences, not just sets.
        for (fid, ft) in schema.fact_types() {
            ops.push(CheckOp::Conformity {
                fact: fid,
                roles: ft.roles(),
                players: [schema.player(ft.first()), schema.player(ft.second())],
            });
        }
        for (ty, ot) in schema.object_types() {
            if ot.value_constraint().is_some() {
                ops.push(CheckOp::ValueDomain { ty });
            }
        }
        for link in schema.subtype_links() {
            ops.push(CheckOp::SubtypeSubset { sub: link.sub, sup: link.sup });
            if options.proper_subtypes {
                ops.push(CheckOp::SubtypeProper { sub: link.sub, sup: link.sup });
            }
        }
        if options.implicit_type_exclusion {
            let types: Vec<ObjectTypeId> = schema.object_types().map(|(id, _)| id).collect();
            for (i, &a) in types.iter().enumerate() {
                for &b in types.iter().skip(i + 1) {
                    if !idx.may_overlap(a, b) {
                        ops.push(CheckOp::ImplicitExclusion { a, b });
                    }
                }
            }
        }
        for (cid, c) in schema.constraints() {
            ops.push(match c {
                Constraint::Mandatory(m) => CheckOp::Mandatory {
                    constraint: cid,
                    player: schema.player(m.roles[0]),
                    roles: m.roles.clone(),
                },
                Constraint::Uniqueness(u) => CheckOp::GroupCount {
                    constraint: cid,
                    fact: schema.role(u.roles[0]).fact_type(),
                    positions: u.roles.iter().map(|r| schema.role(*r).position()).collect(),
                    min: 1,
                    max: Some(1),
                    is_uniqueness: true,
                },
                Constraint::Frequency(f) => CheckOp::GroupCount {
                    constraint: cid,
                    fact: schema.role(f.roles[0]).fact_type(),
                    positions: f.roles.iter().map(|r| schema.role(*r).position()).collect(),
                    min: f.min,
                    max: f.max,
                    is_uniqueness: false,
                },
                Constraint::SetComparison(sc) => CheckOp::SetCompare {
                    constraint: cid,
                    kind: sc.kind,
                    args: sc
                        .args
                        .iter()
                        .map(|seq| match seq.roles() {
                            [r] => SeqSpec::Single(*r),
                            [a, b] => SeqSpec::Pair {
                                fact: schema.role(*a).fact_type(),
                                positions: [schema.role(*a).position(), schema.role(*b).position()],
                            },
                            _ => unreachable!("role sequences have length 1 or 2"),
                        })
                        .collect(),
                },
                Constraint::ExclusiveTypes(e) => {
                    CheckOp::ExclusiveTypes { constraint: cid, types: e.types.clone() }
                }
                Constraint::TotalSubtypes(t) => CheckOp::Totality {
                    constraint: cid,
                    supertype: t.supertype,
                    subtypes: t.subtypes.clone(),
                },
                Constraint::Ring(r) => {
                    CheckOp::Ring { constraint: cid, fact: r.fact_type, kinds: r.kinds }
                }
            });
        }

        CheckPlan {
            schema_revision: schema.revision(),
            tbox_stamp: translation.tbox.cache_stamp(),
            options,
            ops,
            certified_sat,
            unsat_types,
        }
    }

    /// Whether the plan still matches `schema` + `translation`: both the
    /// schema revision and the TBox cache stamp must be unchanged. Any
    /// edit — builder mutation or [`EditSession`] axiom — flips this to
    /// `false`, exactly like a stale [`SatCache`] entry.
    ///
    /// [`EditSession`]: orm_dl::orm_to_dl::EditSession
    /// [`SatCache`]: orm_dl::cache::SatCache
    pub fn is_current(&self, schema: &Schema, translation: &Translation) -> bool {
        self.schema_revision == schema.revision()
            && self.tbox_stamp == translation.tbox.cache_stamp()
    }

    /// The schema revision the plan was compiled against.
    pub fn schema_revision(&self) -> u64 {
        self.schema_revision
    }

    /// The TBox cache stamp the plan was compiled against.
    pub fn tbox_stamp(&self) -> (u64, u64) {
        self.tbox_stamp
    }

    /// The options the plan was compiled under.
    pub fn options(&self) -> CheckOptions {
        self.options
    }

    /// Number of compiled ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Whether the compile-time sweep proved every object type
    /// satisfiable.
    pub fn certified_sat(&self) -> bool {
        self.certified_sat
    }

    /// Object types the compile-time sweep proved unsatisfiable.
    pub fn unsat_types(&self) -> &[ObjectTypeId] {
        &self.unsat_types
    }

    /// Freeze `pop` into columnar form and execute the plan. Returns the
    /// same violation sequence [`crate::check`] would.
    pub fn execute(&self, schema: &Schema, pop: &Population) -> Vec<Violation> {
        let cols = ColumnarPopulation::build(schema, pop);
        self.execute_columnar(schema, &cols)
    }

    /// Execute over an already-frozen columnar population (amortize the
    /// freeze across repeated runs).
    pub fn execute_columnar(&self, schema: &Schema, cols: &ColumnarPopulation) -> Vec<Violation> {
        let mut out = Vec::new();
        for op in &self.ops {
            run_op(op, schema, cols, &mut out);
        }
        out
    }
}

fn run_op(op: &CheckOp, schema: &Schema, cols: &ColumnarPopulation, out: &mut Vec<Violation>) {
    match op {
        CheckOp::Conformity { fact, roles, players } => {
            for &(a, b) in cols.fact_col(*fact) {
                for (id, (role, player)) in [a, b].into_iter().zip(roles.iter().zip(players)) {
                    if !cols.extent_bits(*player).contains(id) {
                        out.push(Violation::Conformity {
                            role: *role,
                            value: cols.value(id).clone(),
                            player: *player,
                        });
                    }
                }
            }
        }
        CheckOp::ValueDomain { ty } => {
            let Some(vc) = schema.object_type(*ty).value_constraint() else { return };
            for &id in cols.extent_col(*ty) {
                if !vc.admits(cols.value(id)) {
                    out.push(Violation::ValueConstraint { ty: *ty, value: cols.value(id).clone() });
                }
            }
        }
        CheckOp::SubtypeSubset { sub, sup } => {
            let sup_bits = cols.extent_bits(*sup);
            for &id in cols.extent_col(*sub) {
                if !sup_bits.contains(id) {
                    out.push(Violation::SubtypeNotSubset {
                        sub: *sub,
                        sup: *sup,
                        value: cols.value(id).clone(),
                    });
                }
            }
        }
        CheckOp::SubtypeProper { sub, sup } => {
            let sub_col = cols.extent_col(*sub);
            if !sub_col.is_empty() && sub_col == cols.extent_col(*sup) {
                out.push(Violation::SubtypeNotProper { sub: *sub, sup: *sup });
            }
        }
        CheckOp::ImplicitExclusion { a, b } => {
            for id in cols.extent_bits(*a).iter_and(cols.extent_bits(*b)) {
                out.push(Violation::ImplicitExclusion {
                    a: *a,
                    b: *b,
                    value: cols.value(id).clone(),
                });
            }
        }
        CheckOp::Mandatory { constraint, player, roles } => {
            for &id in cols.extent_col(*player) {
                if !roles.iter().any(|r| cols.role_bits(*r).contains(id)) {
                    out.push(Violation::Mandatory {
                        constraint: *constraint,
                        value: cols.value(id).clone(),
                    });
                }
            }
        }
        CheckOp::GroupCount { constraint, fact, positions, min, max, is_uniqueness } => {
            run_group_count(cols, *fact, positions, *min, *max, *is_uniqueness, *constraint, out);
        }
        CheckOp::SetCompare { constraint, kind, args } => {
            run_set_compare(cols, *constraint, *kind, args, out);
        }
        CheckOp::ExclusiveTypes { constraint, types } => {
            for (i, &a) in types.iter().enumerate() {
                for &b in types.iter().skip(i + 1) {
                    for id in cols.extent_bits(a).iter_and(cols.extent_bits(b)) {
                        out.push(Violation::ExclusiveTypes {
                            constraint: *constraint,
                            value: cols.value(id).clone(),
                        });
                    }
                }
            }
        }
        CheckOp::Totality { constraint, supertype, subtypes } => {
            for &id in cols.extent_col(*supertype) {
                if !subtypes.iter().any(|s| cols.extent_bits(*s).contains(id)) {
                    out.push(Violation::Totality {
                        constraint: *constraint,
                        value: cols.value(id).clone(),
                    });
                }
            }
        }
        CheckOp::Ring { constraint, fact, kinds } => {
            let tuples = cols.fact_col(*fact);
            for kind in kinds.iter() {
                if let Some(witness) = ring_witness(kind, tuples, |id| cols.value(id)) {
                    out.push(Violation::Ring { constraint: *constraint, kind, witness });
                }
            }
        }
    }
}

/// Emit a group's violation if its size is out of bounds. `key` ids are
/// resolved back to values only on the (rare) violation path.
#[allow(clippy::too_many_arguments)]
fn emit_count(
    cols: &ColumnarPopulation,
    constraint: ConstraintId,
    key: &[u32],
    count: u32,
    min: u32,
    max: Option<u32>,
    is_uniqueness: bool,
    out: &mut Vec<Violation>,
) {
    if count < min || max.is_some_and(|m| count > m) {
        let combo: Vec<Value> = key.iter().map(|&id| cols.value(id).clone()).collect();
        if is_uniqueness {
            out.push(Violation::Uniqueness { constraint, combo, count });
        } else {
            out.push(Violation::Frequency { constraint, combo, count, min, max });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_group_count(
    cols: &ColumnarPopulation,
    fact: FactTypeId,
    positions: &[u8],
    min: u32,
    max: Option<u32>,
    is_uniqueness: bool,
    constraint: ConstraintId,
    out: &mut Vec<Violation>,
) {
    let col = cols.fact_col(fact);
    match positions {
        // First-column groups: the tuple column is already sorted by its
        // first component, so counting is one run-length scan.
        [0] => {
            let mut i = 0;
            while i < col.len() {
                let key = col[i].0;
                let mut j = i + 1;
                while j < col.len() && col[j].0 == key {
                    j += 1;
                }
                emit_count(cols, constraint, &[key], (j - i) as u32, min, max, is_uniqueness, out);
                i = j;
            }
        }
        // Second-column groups: project, sort, run-scan. Ascending id
        // order is ascending value order, so groups come out in the same
        // order the per-violation checker's `BTreeMap` yields them.
        [1] => {
            let mut keys: Vec<u32> = col.iter().map(|&(_, b)| b).collect();
            keys.sort_unstable();
            let mut i = 0;
            while i < keys.len() {
                let key = keys[i];
                let mut j = i + 1;
                while j < keys.len() && keys[j] == key {
                    j += 1;
                }
                emit_count(cols, constraint, &[key], (j - i) as u32, min, max, is_uniqueness, out);
                i = j;
            }
        }
        // Both columns (possibly swapped): tuples are a set, so every
        // group has size 1 — but keep the generic scan for `min > 1`
        // frequency constraints.
        [p0, p1] => {
            let pick = |t: (u32, u32), p: u8| if p == 0 { t.0 } else { t.1 };
            let mut keys: Vec<(u32, u32)> =
                col.iter().map(|&t| (pick(t, *p0), pick(t, *p1))).collect();
            keys.sort_unstable();
            let mut i = 0;
            while i < keys.len() {
                let key = keys[i];
                let mut j = i + 1;
                while j < keys.len() && keys[j] == key {
                    j += 1;
                }
                emit_count(
                    cols,
                    constraint,
                    &[key.0, key.1],
                    (j - i) as u32,
                    min,
                    max,
                    is_uniqueness,
                    out,
                );
                i = j;
            }
        }
        _ => unreachable!("role sequences have length 1 or 2"),
    }
}

/// The population of a compiled role sequence as sorted, deduplicated
/// id keys (length 1 or 2 each).
fn seq_keys(cols: &ColumnarPopulation, spec: &SeqSpec) -> Vec<Vec<u32>> {
    match spec {
        SeqSpec::Single(r) => cols.role_col(*r).iter().map(|&id| vec![id]).collect(),
        SeqSpec::Pair { fact, positions } => {
            let pick = |t: (u32, u32), p: u8| if p == 0 { t.0 } else { t.1 };
            let mut keys: Vec<Vec<u32>> = cols
                .fact_col(*fact)
                .iter()
                .map(|&t| vec![pick(t, positions[0]), pick(t, positions[1])])
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        }
    }
}

fn resolve_key(cols: &ColumnarPopulation, key: &[u32]) -> Vec<Value> {
    key.iter().map(|&id| cols.value(id).clone()).collect()
}

fn run_set_compare(
    cols: &ColumnarPopulation,
    constraint: ConstraintId,
    kind: SetComparisonKind,
    args: &[SeqSpec],
    out: &mut Vec<Violation>,
) {
    let pops: Vec<Vec<Vec<u32>>> = args.iter().map(|spec| seq_keys(cols, spec)).collect();
    match kind {
        SetComparisonKind::Subset => {
            // Sorted-merge set difference pops[0] \ pops[1]; id order is
            // value order, so emissions match the BTreeSet difference.
            for item in sorted_difference(&pops[0], &pops[1]) {
                let item = resolve_key(cols, item);
                out.push(Violation::SetComparison {
                    constraint,
                    detail: format!("{item:?} is in the sub-population but not the super"),
                });
            }
        }
        SetComparisonKind::Equality => {
            for (i, p) in pops.iter().enumerate().skip(1) {
                if p != &pops[0] {
                    out.push(Violation::SetComparison {
                        constraint,
                        detail: format!("argument {i} differs from argument 0"),
                    });
                }
            }
        }
        SetComparisonKind::Exclusion => {
            for i in 0..pops.len() {
                for j in (i + 1)..pops.len() {
                    for item in sorted_intersection(&pops[i], &pops[j]) {
                        let item = resolve_key(cols, item);
                        out.push(Violation::SetComparison {
                            constraint,
                            detail: format!("{item:?} occurs in arguments {i} and {j}"),
                        });
                    }
                }
            }
        }
    }
}

/// Elements of sorted `a` not in sorted `b`, ascending.
fn sorted_difference<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = &'a T> {
    let mut j = 0;
    a.iter().filter(move |x| {
        while j < b.len() && b[j] < **x {
            j += 1;
        }
        !(j < b.len() && b[j] == **x)
    })
}

/// Elements present in both sorted slices, ascending.
fn sorted_intersection<'a, T: Ord>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = &'a T> {
    let mut j = 0;
    a.iter().filter(move |x| {
        while j < b.len() && b[j] < **x {
            j += 1;
        }
        j < b.len() && b[j] == **x
    })
}
