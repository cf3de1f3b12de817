//! Subtype links.
//!
//! Subtyping is structural in ORM diagrams (the arrow between object types),
//! so it is stored separately from the constraint arena. Links are kept in a
//! tombstoned arena like constraints so interactive tools can retract them.
//!
//! ORM subtype populations are **strict** subsets of their supertype
//! populations ([H01]); this is what makes subtype cycles unsatisfiable
//! (Pattern 9). Cycles are therefore representable here and rejected nowhere
//! below the validator.

use crate::ids::ObjectTypeId;

/// A single subtype edge: `sub` is a (strict) subtype of `sup`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubtypeLink {
    /// The subtype.
    pub sub: ObjectTypeId,
    /// The supertype.
    pub sup: ObjectTypeId,
}

impl std::fmt::Display for SubtypeLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} <: {}", self.sub, self.sup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_direction() {
        let l = SubtypeLink { sub: ObjectTypeId::from_raw(1), sup: ObjectTypeId::from_raw(0) };
        assert_eq!(l.to_string(), "ot1 <: ot0");
    }
}
