//! The schema: arenas of object types, fact types, roles, constraints and
//! subtype links.

use crate::constraint::{Constraint, RoleSeq};
use crate::error::ModelError;
use crate::fact_type::{FactType, Role};
use crate::ids::{ConstraintId, FactTypeId, ObjectTypeId, RoleId};
use crate::index::SchemaIndex;
use crate::object_type::ObjectType;
use crate::subtype::SubtypeLink;
use crate::value::ValueConstraint;
use std::collections::HashMap;

/// Any addressable schema element; used as the *subject* of diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Element {
    /// An object type.
    ObjectType(ObjectTypeId),
    /// A fact type (predicate).
    FactType(FactTypeId),
    /// A role.
    Role(RoleId),
    /// A constraint.
    Constraint(ConstraintId),
    /// A subtype link.
    Subtype(ObjectTypeId, ObjectTypeId),
}

/// An ORM conceptual schema.
///
/// Schemas are built with [`crate::SchemaBuilder`] and may afterwards be
/// edited through the mutation API ([`Schema::add_constraint`],
/// [`Schema::remove_constraint`], [`Schema::add_subtype`],
/// [`Schema::remove_subtype`], [`Schema::set_value_constraint`]) — this is
/// what makes interactive validation loops (the paper's DogmaModeler
/// scenario) possible. Every mutation bumps [`Schema::revision`], which
/// validators use for cache invalidation.
#[derive(Clone, Debug)]
pub struct Schema {
    pub(crate) name: String,
    pub(crate) object_types: Vec<ObjectType>,
    pub(crate) fact_types: Vec<FactType>,
    pub(crate) roles: Vec<Role>,
    pub(crate) constraints: Vec<Option<Constraint>>,
    pub(crate) subtype_links: Vec<Option<SubtypeLink>>,
    pub(crate) type_names: HashMap<String, ObjectTypeId>,
    pub(crate) fact_names: HashMap<String, FactTypeId>,
    pub(crate) revision: u64,
}

impl Schema {
    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonically increasing edit counter; bumped by every mutation.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    // ------------------------------------------------------------------
    // Element access
    // ------------------------------------------------------------------

    /// Look up an object type by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this schema.
    pub fn object_type(&self, id: ObjectTypeId) -> &ObjectType {
        &self.object_types[id.index()]
    }

    /// Look up a fact type by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this schema.
    pub fn fact_type(&self, id: FactTypeId) -> &FactType {
        &self.fact_types[id.index()]
    }

    /// Look up a role by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this schema.
    pub fn role(&self, id: RoleId) -> &Role {
        &self.roles[id.index()]
    }

    /// Look up a live constraint by id; `None` if removed or unknown.
    pub fn constraint(&self, id: ConstraintId) -> Option<&Constraint> {
        self.constraints.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterate over all object types with their ids.
    pub fn object_types(&self) -> impl Iterator<Item = (ObjectTypeId, &ObjectType)> {
        self.object_types.iter().enumerate().map(|(i, t)| (ObjectTypeId(i as u32), t))
    }

    /// Iterate over all fact types with their ids.
    pub fn fact_types(&self) -> impl Iterator<Item = (FactTypeId, &FactType)> {
        self.fact_types.iter().enumerate().map(|(i, t)| (FactTypeId(i as u32), t))
    }

    /// Iterate over all roles with their ids.
    pub fn roles(&self) -> impl Iterator<Item = (RoleId, &Role)> {
        self.roles.iter().enumerate().map(|(i, r)| (RoleId(i as u32), r))
    }

    /// Iterate over all *live* constraints with their ids.
    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &Constraint)> {
        self.constraints
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (ConstraintId(i as u32), c)))
    }

    /// Iterate over all live subtype links.
    pub fn subtype_links(&self) -> impl Iterator<Item = SubtypeLink> + '_ {
        self.subtype_links.iter().filter_map(|l| *l)
    }

    /// Number of object types.
    pub fn object_type_count(&self) -> usize {
        self.object_types.len()
    }

    /// Number of fact types.
    pub fn fact_type_count(&self) -> usize {
        self.fact_types.len()
    }

    /// Number of roles (always twice the fact type count).
    pub fn role_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of live constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.iter().filter(|c| c.is_some()).count()
    }

    /// Total number of named elements; a rough "schema size" used by the
    /// scaling benchmarks.
    pub fn size(&self) -> usize {
        self.object_types.len()
            + self.fact_types.len()
            + self.constraint_count()
            + self.subtype_links().count()
    }

    // ------------------------------------------------------------------
    // Name lookup
    // ------------------------------------------------------------------

    /// Resolve an object type by name.
    pub fn object_type_by_name(&self, name: &str) -> Option<ObjectTypeId> {
        self.type_names.get(name).copied()
    }

    /// Resolve a fact type by name.
    pub fn fact_type_by_name(&self, name: &str) -> Option<FactTypeId> {
        self.fact_names.get(name).copied()
    }

    /// Resolve a role by its label (e.g. `"r1"`), scanning all roles.
    pub fn role_by_name(&self, name: &str) -> Option<RoleId> {
        self.roles().find(|(_, r)| r.name == name).map(|(id, _)| id)
    }

    // ------------------------------------------------------------------
    // Derived navigation helpers
    // ------------------------------------------------------------------

    /// The role opposite `role` within its binary fact type. The paper calls
    /// this the *inverse role* (Pattern 5).
    pub fn co_role(&self, role: RoleId) -> RoleId {
        let fact = self.fact_type(self.role(role).fact_type);
        fact.co_role(role).expect("role belongs to its own fact type")
    }

    /// The object type playing `role`.
    pub fn player(&self, role: RoleId) -> ObjectTypeId {
        self.role(role).player
    }

    /// Human-readable label for a role: its explicit name.
    pub fn role_label(&self, role: RoleId) -> &str {
        self.role(role).name()
    }

    /// Render a role sequence like `(r1, r2)` using role labels.
    pub fn seq_label(&self, seq: &RoleSeq) -> String {
        let parts: Vec<&str> = seq.roles().iter().map(|r| self.role_label(*r)).collect();
        format!("({})", parts.join(", "))
    }

    /// Whether `seq` spans the whole predicate of some fact type (both roles
    /// of one fact type).
    pub fn seq_is_whole_predicate(&self, seq: &RoleSeq) -> bool {
        match seq.roles() {
            [a, b] => {
                let fa = self.role(*a).fact_type;
                fa == self.role(*b).fact_type && *a != *b
            }
            _ => false,
        }
    }

    /// Compute the derived index (closures, per-role constraint maps).
    ///
    /// The index is a pure function of the schema contents; validators
    /// compute it once per revision and share it across all pattern checks.
    pub fn index(&self) -> SchemaIndex {
        SchemaIndex::build(self)
    }

    // ------------------------------------------------------------------
    // Mutation (interactive editing)
    // ------------------------------------------------------------------

    fn bump(&mut self) {
        self.revision += 1;
    }

    /// Add a constraint that was validated by [`crate::SchemaBuilder`]
    /// helpers; exposed for interactive tools via the checked wrappers on
    /// the builder. Internal invariant checks are the caller's duty.
    pub(crate) fn push_constraint(&mut self, c: Constraint) -> ConstraintId {
        let id = ConstraintId(self.constraints.len() as u32);
        self.constraints.push(Some(c));
        self.bump();
        id
    }

    /// Add an already-validated constraint. Prefer the checked helpers on
    /// [`crate::SchemaBuilder`]; this exists so interactive tools can re-add
    /// a constraint that was previously removed.
    pub fn add_constraint(&mut self, c: Constraint) -> ConstraintId {
        self.push_constraint(c)
    }

    /// Remove a constraint, leaving a tombstone so other ids stay stable.
    /// Returns the removed constraint, or `None` if the id was unknown or
    /// already removed.
    pub fn remove_constraint(&mut self, id: ConstraintId) -> Option<Constraint> {
        let slot = self.constraints.get_mut(id.index())?;
        let removed = slot.take();
        if removed.is_some() {
            self.bump();
        }
        removed
    }

    /// Add a subtype link `sub <: sup`.
    pub fn add_subtype(&mut self, sub: ObjectTypeId, sup: ObjectTypeId) -> Result<(), ModelError> {
        if sub == sup {
            return Err(ModelError::SelfSubtype { ty: sub });
        }
        if self.subtype_links().any(|l| l.sub == sub && l.sup == sup) {
            return Err(ModelError::DuplicateSubtype { sub, sup });
        }
        self.subtype_links.push(Some(SubtypeLink { sub, sup }));
        self.bump();
        Ok(())
    }

    /// Remove a subtype link; returns whether it existed.
    pub fn remove_subtype(&mut self, sub: ObjectTypeId, sup: ObjectTypeId) -> bool {
        for slot in &mut self.subtype_links {
            if matches!(slot, Some(l) if l.sub == sub && l.sup == sup) {
                *slot = None;
                self.bump();
                return true;
            }
        }
        false
    }

    /// Set or clear the value constraint of an object type.
    pub fn set_value_constraint(&mut self, ty: ObjectTypeId, vc: Option<ValueConstraint>) {
        self.object_types[ty.index()].value_constraint = vc;
        self.bump();
    }

    /// Pretty label for any element, for diagnostics.
    pub fn element_label(&self, e: Element) -> String {
        match e {
            Element::ObjectType(id) => self.object_type(id).name().to_owned(),
            Element::FactType(id) => self.fact_type(id).name().to_owned(),
            Element::Role(id) => self.role_label(id).to_owned(),
            Element::Constraint(id) => match self.constraint(id) {
                Some(c) => format!("{:?} {}", c.kind(), id),
                None => format!("removed {id}"),
            },
            Element::Subtype(sub, sup) => {
                format!("{} <: {}", self.object_type(sub).name(), self.object_type(sup).name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::constraint::{Constraint, Mandatory};

    fn two_type_schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let bb = b.entity_type("B").unwrap();
        b.fact_type("f", a, bb).unwrap();
        b.finish()
    }

    #[test]
    fn lookup_by_name() {
        let s = two_type_schema();
        let a = s.object_type_by_name("A").unwrap();
        assert_eq!(s.object_type(a).name(), "A");
        assert!(s.object_type_by_name("Z").is_none());
        let f = s.fact_type_by_name("f").unwrap();
        assert_eq!(s.fact_type(f).name(), "f");
    }

    #[test]
    fn co_role_is_involutive() {
        let s = two_type_schema();
        let f = s.fact_type_by_name("f").unwrap();
        let [r0, r1] = s.fact_type(f).roles();
        assert_eq!(s.co_role(r0), r1);
        assert_eq!(s.co_role(s.co_role(r0)), r0);
    }

    #[test]
    fn revision_bumps_on_mutation() {
        let mut s = two_type_schema();
        let r0 = s.fact_type(s.fact_type_by_name("f").unwrap()).first();
        let rev = s.revision();
        let id = s.add_constraint(Constraint::Mandatory(Mandatory { roles: vec![r0] }));
        assert!(s.revision() > rev);
        let rev = s.revision();
        assert!(s.remove_constraint(id).is_some());
        assert!(s.revision() > rev);
        // Removing again is a no-op and does not bump.
        let rev = s.revision();
        assert!(s.remove_constraint(id).is_none());
        assert_eq!(s.revision(), rev);
    }

    #[test]
    fn constraint_tombstones_keep_ids_stable() {
        let mut s = two_type_schema();
        let r0 = s.fact_type(s.fact_type_by_name("f").unwrap()).first();
        let c1 = s.add_constraint(Constraint::Mandatory(Mandatory { roles: vec![r0] }));
        let c2 = s.add_constraint(Constraint::Mandatory(Mandatory { roles: vec![r0] }));
        s.remove_constraint(c1);
        assert!(s.constraint(c1).is_none());
        assert!(s.constraint(c2).is_some());
        assert_eq!(s.constraint_count(), 1);
    }

    #[test]
    fn subtype_add_remove() {
        let mut s = two_type_schema();
        let a = s.object_type_by_name("A").unwrap();
        let b = s.object_type_by_name("B").unwrap();
        s.add_subtype(b, a).unwrap();
        assert_eq!(s.add_subtype(b, a), Err(ModelError::DuplicateSubtype { sub: b, sup: a }));
        assert_eq!(s.add_subtype(a, a), Err(ModelError::SelfSubtype { ty: a }));
        assert!(s.remove_subtype(b, a));
        assert!(!s.remove_subtype(b, a));
    }

    #[test]
    fn whole_predicate_detection() {
        let s = two_type_schema();
        let f = s.fact_type_by_name("f").unwrap();
        let [r0, r1] = s.fact_type(f).roles();
        assert!(s.seq_is_whole_predicate(&RoleSeq::pair(r0, r1)));
        assert!(s.seq_is_whole_predicate(&RoleSeq::pair(r1, r0)));
        assert!(!s.seq_is_whole_predicate(&RoleSeq::single(r0)));
        assert!(!s.seq_is_whole_predicate(&RoleSeq::pair(r0, r0)));
    }

    #[test]
    fn size_counts_live_elements() {
        let mut s = two_type_schema();
        let base = s.size();
        let r0 = s.fact_type(s.fact_type_by_name("f").unwrap()).first();
        let id = s.add_constraint(Constraint::Mandatory(Mandatory { roles: vec![r0] }));
        assert_eq!(s.size(), base + 1);
        s.remove_constraint(id);
        assert_eq!(s.size(), base);
    }
}
