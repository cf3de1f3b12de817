//! ORM constraints.
//!
//! Every constraint kind the nine patterns of the paper reason about is
//! represented here. Constraints are stored in a single arena on the schema
//! and addressed by [`crate::ConstraintId`], so diagnostics can point at the
//! exact constraints that jointly cause an unsatisfiability — mirroring the
//! explanation messages of the paper's appendix algorithms.

use crate::ids::{FactTypeId, ObjectTypeId, RoleId};
use std::fmt;

/// A sequence of roles used as an argument of a set-comparison constraint.
///
/// In the binary setting of the paper a role sequence is either a **single
/// role** (length 1) or a **whole predicate** (length 2, both roles of one
/// fact type in order).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleSeq(pub Vec<RoleId>);

impl RoleSeq {
    /// A single-role sequence.
    pub fn single(role: RoleId) -> Self {
        RoleSeq(vec![role])
    }

    /// A two-role (whole predicate) sequence.
    pub fn pair(first: RoleId, second: RoleId) -> Self {
        RoleSeq(vec![first, second])
    }

    /// Number of roles in the sequence.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the sequence is empty (never true for built schemas).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether this argument is a single role.
    pub fn is_single(&self) -> bool {
        self.0.len() == 1
    }

    /// The roles of the sequence.
    pub fn roles(&self) -> &[RoleId] {
        &self.0
    }
}

impl fmt::Debug for RoleSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, r) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

impl From<RoleId> for RoleSeq {
    fn from(r: RoleId) -> Self {
        RoleSeq::single(r)
    }
}

/// Mandatory role constraint.
///
/// With a single role this is the classic "every instance of the player must
/// play this role". With several roles (all played by the same object type)
/// it is a *disjunctive* mandatory constraint: every instance must play at
/// least one of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mandatory {
    /// The roles covered by the constraint; disjunctive when `len() > 1`.
    pub roles: Vec<RoleId>,
}

impl Mandatory {
    /// Whether this is a simple (single-role) mandatory constraint.
    pub fn is_simple(&self) -> bool {
        self.roles.len() == 1
    }
}

/// Internal uniqueness constraint over a subset of the roles of one fact
/// type.
///
/// For a binary fact type the sequence is either one role ("each player
/// appears at most once") or both roles (the implicit spanning uniqueness of
/// set semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uniqueness {
    /// The covered roles, all belonging to the same fact type.
    pub roles: Vec<RoleId>,
}

/// Frequency constraint `FC(min..max)` over a role sequence of one fact type.
///
/// Semantics (\[H89\]): every instance combination that *does* occur in the
/// covered columns occurs between `min` and `max` times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frequency {
    /// The covered roles, all belonging to the same fact type.
    pub roles: Vec<RoleId>,
    /// Lower bound (≥ 1).
    pub min: u32,
    /// Upper bound; `None` means unbounded ("n or more").
    pub max: Option<u32>,
}

impl Frequency {
    /// Render as the paper's `FC(min-max)` notation.
    pub fn notation(&self) -> String {
        match self.max {
            Some(max) => format!("FC({}-{})", self.min, max),
            None => format!("FC({}-)", self.min),
        }
    }
}

/// Which set-comparison relation a [`SetComparison`] asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetComparisonKind {
    /// `args[0] ⊆ args[1]` (population of the first sequence is included in
    /// the second).
    Subset,
    /// All argument populations are equal.
    Equality,
    /// All argument populations are pairwise disjoint.
    Exclusion,
}

impl fmt::Display for SetComparisonKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetComparisonKind::Subset => write!(f, "subset"),
            SetComparisonKind::Equality => write!(f, "equality"),
            SetComparisonKind::Exclusion => write!(f, "exclusion"),
        }
    }
}

/// Set-comparison constraint (subset / equality / exclusion) over role
/// sequences.
///
/// All argument sequences have the same length (1 = between roles,
/// 2 = between whole predicates). A subset constraint has exactly two
/// arguments, directed from `args[0]` (sub) to `args[1]` (super); equality
/// and exclusion take two or more.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetComparison {
    /// The relation asserted between the argument populations.
    pub kind: SetComparisonKind,
    /// The compared role sequences.
    pub args: Vec<RoleSeq>,
}

impl SetComparison {
    /// Whether the arguments are single roles (as opposed to predicates).
    pub fn over_single_roles(&self) -> bool {
        self.args.first().is_some_and(RoleSeq::is_single)
    }
}

/// Exclusive constraint between object types: their populations must be
/// pairwise disjoint (the ⊗ between `Student` and `Employee` in Fig. 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExclusiveTypes {
    /// The mutually exclusive object types.
    pub types: Vec<ObjectTypeId>,
}

/// Totality constraint: the population of `supertype` is exactly the union
/// of the populations of `subtypes`.
///
/// Not itself one of the paper's nine pattern triggers, but needed to encode
/// Fig. 14 (every `A` must be a `B` or a `C`) and common in real schemas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TotalSubtypes {
    /// The partitioned supertype.
    pub supertype: ObjectTypeId,
    /// The subtypes that jointly cover the supertype.
    pub subtypes: Vec<ObjectTypeId>,
}

/// One of the six ring constraint kinds of ORM (\[H01\], Fig. 12 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RingKind {
    /// `¬r(x,x)`.
    Irreflexive,
    /// `r(x,y) ∧ r(y,x) → x = y`.
    Antisymmetric,
    /// `r(x,y) → ¬r(y,x)` (= antisymmetric ∧ irreflexive).
    Asymmetric,
    /// No directed cycles (implies asymmetric, hence irreflexive).
    Acyclic,
    /// `r(x,y) ∧ r(y,z) → ¬r(x,z)` (implies irreflexive).
    Intransitive,
    /// `r(x,y) → r(y,x)`.
    Symmetric,
}

impl RingKind {
    /// All six kinds, in the paper's order.
    pub const ALL: [RingKind; 6] = [
        RingKind::Antisymmetric,
        RingKind::Asymmetric,
        RingKind::Acyclic,
        RingKind::Irreflexive,
        RingKind::Intransitive,
        RingKind::Symmetric,
    ];

    /// The paper's two-letter abbreviation (`ans`, `as`, `ac`, `ir`, `it`,
    /// `sym`).
    pub fn abbrev(self) -> &'static str {
        match self {
            RingKind::Antisymmetric => "ans",
            RingKind::Asymmetric => "as",
            RingKind::Acyclic => "ac",
            RingKind::Irreflexive => "ir",
            RingKind::Intransitive => "it",
            RingKind::Symmetric => "sym",
        }
    }
}

impl fmt::Display for RingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A set of [`RingKind`]s, stored as a tiny bitset.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingKinds(u8);

impl RingKinds {
    /// The empty set.
    pub const EMPTY: RingKinds = RingKinds(0);

    fn bit(kind: RingKind) -> u8 {
        match kind {
            RingKind::Antisymmetric => 1 << 0,
            RingKind::Asymmetric => 1 << 1,
            RingKind::Acyclic => 1 << 2,
            RingKind::Irreflexive => 1 << 3,
            RingKind::Intransitive => 1 << 4,
            RingKind::Symmetric => 1 << 5,
        }
    }

    /// Set of a single kind.
    pub fn only(kind: RingKind) -> Self {
        RingKinds(Self::bit(kind))
    }

    /// Build from an iterator of kinds (also available through the
    /// `FromIterator` impl; this inherent form keeps call sites short).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = RingKind>>(kinds: I) -> Self {
        let mut s = RingKinds::EMPTY;
        for k in kinds {
            s.insert(k);
        }
        s
    }

    /// Insert a kind.
    pub fn insert(&mut self, kind: RingKind) {
        self.0 |= Self::bit(kind);
    }

    /// Remove a kind.
    pub fn remove(&mut self, kind: RingKind) {
        self.0 &= !Self::bit(kind);
    }

    /// Membership test.
    pub fn contains(self, kind: RingKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// Whether no kinds are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of kinds present.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(self, other: RingKinds) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set union.
    pub fn union(self, other: RingKinds) -> RingKinds {
        RingKinds(self.0 | other.0)
    }

    /// Iterate over the contained kinds in [`RingKind::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = RingKind> {
        RingKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }

    /// Enumerate all 64 possible kind sets (for table generation).
    pub fn all_subsets() -> impl Iterator<Item = RingKinds> {
        (0u8..64).map(RingKinds)
    }
}

impl fmt::Debug for RingKinds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, k) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RingKinds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<RingKind> for RingKinds {
    fn from_iter<I: IntoIterator<Item = RingKind>>(iter: I) -> Self {
        RingKinds::from_iter(iter)
    }
}

/// Ring constraint: a set of [`RingKind`]s applied to the two roles of a
/// binary fact type whose players are compatible (same type or connected via
/// supertypes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    /// The constrained fact type (its two roles form the ring pair).
    pub fact_type: FactTypeId,
    /// The applied ring constraint kinds.
    pub kinds: RingKinds,
}

/// Any ORM constraint, as stored in the schema's constraint arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// Mandatory (possibly disjunctive) role constraint.
    Mandatory(Mandatory),
    /// Internal uniqueness constraint.
    Uniqueness(Uniqueness),
    /// Frequency constraint `FC(min..max)`.
    Frequency(Frequency),
    /// Subset / equality / exclusion between role sequences.
    SetComparison(SetComparison),
    /// Pairwise-disjoint object types.
    ExclusiveTypes(ExclusiveTypes),
    /// Supertype covered by the union of subtypes.
    TotalSubtypes(TotalSubtypes),
    /// Ring constraints on a fact type.
    Ring(Ring),
}

/// Discriminant-only view of [`Constraint`], useful for filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ConstraintKind {
    Mandatory,
    Uniqueness,
    Frequency,
    SetComparison,
    ExclusiveTypes,
    TotalSubtypes,
    Ring,
}

impl Constraint {
    /// The discriminant of this constraint.
    pub fn kind(&self) -> ConstraintKind {
        match self {
            Constraint::Mandatory(_) => ConstraintKind::Mandatory,
            Constraint::Uniqueness(_) => ConstraintKind::Uniqueness,
            Constraint::Frequency(_) => ConstraintKind::Frequency,
            Constraint::SetComparison(_) => ConstraintKind::SetComparison,
            Constraint::ExclusiveTypes(_) => ConstraintKind::ExclusiveTypes,
            Constraint::TotalSubtypes(_) => ConstraintKind::TotalSubtypes,
            Constraint::Ring(_) => ConstraintKind::Ring,
        }
    }

    /// All roles mentioned by this constraint (empty for type-level
    /// constraints).
    pub fn mentioned_roles(&self) -> Vec<RoleId> {
        match self {
            Constraint::Mandatory(m) => m.roles.clone(),
            Constraint::Uniqueness(u) => u.roles.clone(),
            Constraint::Frequency(f) => f.roles.clone(),
            Constraint::SetComparison(s) => {
                s.args.iter().flat_map(|seq| seq.roles().iter().copied()).collect()
            }
            Constraint::ExclusiveTypes(_) | Constraint::TotalSubtypes(_) => Vec::new(),
            Constraint::Ring(_) => Vec::new(),
        }
    }

    /// All object types mentioned directly by this constraint (empty for
    /// role-level constraints).
    pub fn mentioned_types(&self) -> Vec<ObjectTypeId> {
        match self {
            Constraint::ExclusiveTypes(e) => e.types.clone(),
            Constraint::TotalSubtypes(t) => {
                let mut v = vec![t.supertype];
                v.extend(&t.subtypes);
                v
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_seq_constructors() {
        let s = RoleSeq::single(RoleId::from_raw(1));
        assert!(s.is_single());
        assert_eq!(s.len(), 1);
        let p = RoleSeq::pair(RoleId::from_raw(1), RoleId::from_raw(2));
        assert!(!p.is_single());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn frequency_notation_matches_paper() {
        let f = Frequency { roles: vec![RoleId::from_raw(0)], min: 3, max: Some(5) };
        assert_eq!(f.notation(), "FC(3-5)");
        let open = Frequency { roles: vec![RoleId::from_raw(0)], min: 2, max: None };
        assert_eq!(open.notation(), "FC(2-)");
    }

    #[test]
    fn ring_kinds_set_operations() {
        let mut s = RingKinds::EMPTY;
        assert!(s.is_empty());
        s.insert(RingKind::Acyclic);
        s.insert(RingKind::Symmetric);
        assert_eq!(s.len(), 2);
        assert!(s.contains(RingKind::Acyclic));
        assert!(!s.contains(RingKind::Irreflexive));
        s.remove(RingKind::Acyclic);
        assert!(!s.contains(RingKind::Acyclic));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ring_kinds_subset_and_union() {
        let a = RingKinds::from_iter([RingKind::Acyclic]);
        let b = RingKinds::from_iter([RingKind::Acyclic, RingKind::Intransitive]);
        assert!(a.is_subset(b));
        assert!(!b.is_subset(a));
        assert_eq!(a.union(b), b);
    }

    #[test]
    fn ring_kinds_enumeration_is_complete() {
        assert_eq!(RingKinds::all_subsets().count(), 64);
        let full: RingKinds = RingKind::ALL.into_iter().collect();
        assert_eq!(full.len(), 6);
        assert_eq!(full.iter().count(), 6);
    }

    #[test]
    fn ring_kinds_display() {
        let s = RingKinds::from_iter([RingKind::Symmetric, RingKind::Intransitive]);
        assert_eq!(s.to_string(), "{it, sym}");
    }

    #[test]
    fn constraint_kind_discriminants() {
        let c = Constraint::Mandatory(Mandatory { roles: vec![RoleId::from_raw(0)] });
        assert_eq!(c.kind(), ConstraintKind::Mandatory);
        assert_eq!(c.mentioned_roles(), vec![RoleId::from_raw(0)]);
        assert!(c.mentioned_types().is_empty());

        let e = Constraint::ExclusiveTypes(ExclusiveTypes {
            types: vec![ObjectTypeId::from_raw(0), ObjectTypeId::from_raw(1)],
        });
        assert_eq!(e.kind(), ConstraintKind::ExclusiveTypes);
        assert!(e.mentioned_roles().is_empty());
        assert_eq!(e.mentioned_types().len(), 2);
    }

    #[test]
    fn set_comparison_over_single_roles() {
        let s = SetComparison {
            kind: SetComparisonKind::Exclusion,
            args: vec![RoleSeq::single(RoleId::from_raw(0)), RoleSeq::single(RoleId::from_raw(2))],
        };
        assert!(s.over_single_roles());
        let p = SetComparison {
            kind: SetComparisonKind::Subset,
            args: vec![
                RoleSeq::pair(RoleId::from_raw(0), RoleId::from_raw(1)),
                RoleSeq::pair(RoleId::from_raw(2), RoleId::from_raw(3)),
            ],
        };
        assert!(!p.over_single_roles());
    }

    #[test]
    fn mandatory_simple_vs_disjunctive() {
        let simple = Mandatory { roles: vec![RoleId::from_raw(0)] };
        assert!(simple.is_simple());
        let disj = Mandatory { roles: vec![RoleId::from_raw(0), RoleId::from_raw(2)] };
        assert!(!disj.is_simple());
    }
}
