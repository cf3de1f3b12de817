//! # orm-model — the ORM metamodel
//!
//! This crate implements the Object-Role Modeling (ORM) metamodel used by the
//! unsatisfiability-pattern reproduction of *Jarrar & Heymans,
//! "Unsatisfiability Reasoning in ORM Conceptual Schemes" (EDBT 2006)*.
//!
//! Following the paper (§2), the model is restricted to **binary** fact types,
//! without objectification (nested fact types) and without derivation rules.
//! Everything else the nine patterns touch is represented:
//!
//! * object types (entity and value types) with optional **value constraints**
//!   (enumerations or integer ranges),
//! * **subtyping** with the strict-subset semantics of \[H01\] (cycles are
//!   representable so that Pattern 9 can detect them),
//! * binary **fact types** with two named roles,
//! * **mandatory** role constraints (simple and disjunctive),
//! * internal **uniqueness** constraints over role sequences,
//! * **frequency** constraints `FC(min..max)`,
//! * **set-comparison** constraints (subset / equality / exclusion) over
//!   single roles or whole predicates,
//! * **exclusive** and **total** constraints between object types,
//! * the six **ring** constraints (irreflexive, antisymmetric, asymmetric,
//!   acyclic, intransitive, symmetric).
//!
//! The central type is [`Schema`]; build one with [`SchemaBuilder`]:
//!
//! ```
//! use orm_model::SchemaBuilder;
//!
//! let mut b = SchemaBuilder::new("university");
//! let person = b.entity_type("Person").unwrap();
//! let student = b.entity_type("Student").unwrap();
//! let employee = b.entity_type("Employee").unwrap();
//! let phd = b.entity_type("PhdStudent").unwrap();
//! b.subtype(student, person).unwrap();
//! b.subtype(employee, person).unwrap();
//! b.subtype(phd, student).unwrap();
//! b.subtype(phd, employee).unwrap();
//! b.exclusive_types([student, employee]).unwrap();
//! let schema = b.finish();
//! assert_eq!(schema.object_types().count(), 4);
//! ```
//!
//! The builder rejects *structurally* invalid input (unknown ids, wrong
//! arities, empty constraint argument lists). It deliberately **accepts
//! semantically contradictory schemas** — detecting those is the job of the
//! `orm-core` validator, exactly as in the paper's DogmaModeler setting.
//!
//! The [`population`] module gives schemas their meaning: a
//! [`population::Population`] interprets every type and fact type, and
//! [`population::check`] decides whether it is a model. It lives here,
//! below every engine, so that the saturation engine, the bounded model
//! finder and the bulk checker all certify with the same semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod constraint;
mod error;
mod fact_type;
mod ids;
mod index;
mod object_type;
pub mod population;
mod schema;
mod subtype;
mod value;

pub use builder::SchemaBuilder;
pub use constraint::{
    Constraint, ConstraintKind, ExclusiveTypes, Frequency, Mandatory, Ring, RingKind, RingKinds,
    RoleSeq, SetComparison, SetComparisonKind, TotalSubtypes, Uniqueness,
};
pub use error::ModelError;
pub use fact_type::{FactType, Role};
pub use ids::{ConstraintId, FactTypeId, ObjectTypeId, RoleId};
pub use index::SchemaIndex;
pub use object_type::{ObjectType, ObjectTypeKind};
pub use schema::{Element, Schema};
pub use subtype::SubtypeLink;
pub use value::{Value, ValueConstraint};
