//! Binary fact types and their roles.

use crate::ids::{FactTypeId, ObjectTypeId, RoleId};

/// A role: one "column" of a binary fact type, played by an object type.
///
/// Roles are the unit the paper's patterns reason about — "the role r1 cannot
/// be populated" — so they carry their own ids and optional diagram labels
/// (`r1`, `r3`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Role {
    pub(crate) name: String,
    pub(crate) fact_type: FactTypeId,
    pub(crate) position: u8,
    pub(crate) player: ObjectTypeId,
}

impl Role {
    /// The label of this role (diagram labels like `r1`; auto-generated as
    /// `<fact>.<position>` when not provided).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fact type this role belongs to.
    pub fn fact_type(&self) -> FactTypeId {
        self.fact_type
    }

    /// Position within the fact type: `0` (first) or `1` (second).
    pub fn position(&self) -> u8 {
        self.position
    }

    /// The object type playing this role.
    pub fn player(&self) -> ObjectTypeId {
        self.player
    }
}

/// A binary fact type (predicate) relating two object types through two
/// [`Role`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FactType {
    pub(crate) name: String,
    pub(crate) roles: [RoleId; 2],
    pub(crate) reading: Option<String>,
}

impl FactType {
    /// The unique name of the predicate within its schema.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The two roles, in order.
    pub fn roles(&self) -> [RoleId; 2] {
        self.roles
    }

    /// The first role.
    pub fn first(&self) -> RoleId {
        self.roles[0]
    }

    /// The second role.
    pub fn second(&self) -> RoleId {
        self.roles[1]
    }

    /// The role at `position` (0 or 1).
    ///
    /// # Panics
    /// Panics if `position > 1`; fact types are binary by construction.
    pub fn role_at(&self, position: u8) -> RoleId {
        self.roles[usize::from(position)]
    }

    /// The role opposite to `role`, or `None` if `role` does not belong to
    /// this fact type. The paper calls this the *inverse role* (Pattern 5).
    pub fn co_role(&self, role: RoleId) -> Option<RoleId> {
        if role == self.roles[0] {
            Some(self.roles[1])
        } else if role == self.roles[1] {
            Some(self.roles[0])
        } else {
            None
        }
    }

    /// An optional natural-language reading such as `"works for"`, used by
    /// the verbalizer.
    pub fn reading(&self) -> Option<&str> {
        self.reading.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fact() -> FactType {
        FactType {
            name: "works_for".into(),
            roles: [RoleId::from_raw(0), RoleId::from_raw(1)],
            reading: Some("works for".into()),
        }
    }

    #[test]
    fn role_accessors() {
        let ft = sample_fact();
        assert_eq!(ft.first(), RoleId::from_raw(0));
        assert_eq!(ft.second(), RoleId::from_raw(1));
        assert_eq!(ft.role_at(0), ft.first());
        assert_eq!(ft.role_at(1), ft.second());
        assert_eq!(ft.reading(), Some("works for"));
    }

    #[test]
    fn co_role_flips_position() {
        let ft = sample_fact();
        assert_eq!(ft.co_role(RoleId::from_raw(0)), Some(RoleId::from_raw(1)));
        assert_eq!(ft.co_role(RoleId::from_raw(1)), Some(RoleId::from_raw(0)));
        assert_eq!(ft.co_role(RoleId::from_raw(9)), None);
    }
}
