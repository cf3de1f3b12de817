//! Typed arena indices for schema elements.
//!
//! All schema elements live in arenas owned by [`crate::Schema`] and are
//! referenced by cheap `u32` newtype ids. Ids are stable for the lifetime of
//! a schema: removing a constraint leaves a tombstone rather than shifting
//! later ids, which lets diagnostics and interactive tools hold on to ids
//! across edits.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Construct an id from a raw index.
            ///
            /// Intended for deserialization and test fixtures; ids minted this
            /// way are only meaningful against the schema they came from.
            pub fn from_raw(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw arena index.
            pub fn raw(self) -> u32 {
                self.0
            }

            /// The raw arena index as `usize`, for direct slice indexing.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies an [`crate::ObjectType`] within a [`crate::Schema`].
    ObjectTypeId,
    "ot"
);
id_type!(
    /// Identifies a [`crate::FactType`] within a [`crate::Schema`].
    FactTypeId,
    "ft"
);
id_type!(
    /// Identifies a [`crate::Role`] within a [`crate::Schema`].
    ///
    /// Roles are globally indexed (not per fact type) so that constraint
    /// argument lists can mix roles of different fact types, as the paper's
    /// exclusion constraints do.
    RoleId,
    "r"
);
id_type!(
    /// Identifies a [`crate::Constraint`] within a [`crate::Schema`].
    ConstraintId,
    "c"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip() {
        let id = RoleId::from_raw(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ObjectTypeId::from_raw(3).to_string(), "ot3");
        assert_eq!(FactTypeId::from_raw(0).to_string(), "ft0");
        assert_eq!(RoleId::from_raw(12).to_string(), "r12");
        assert_eq!(ConstraintId::from_raw(5).to_string(), "c5");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(RoleId::from_raw(1) < RoleId::from_raw(2));
        assert_eq!(RoleId::from_raw(4), RoleId::from_raw(4));
    }
}
