//! # orm-core — unsatisfiability pattern detection for ORM schemas
//!
//! This crate is the primary contribution of the reproduced paper:
//! *Jarrar & Heymans, "Unsatisfiability Reasoning in ORM Conceptual
//! Schemes" (EDBT 2006)*. It implements:
//!
//! * the paper's **nine unsatisfiability patterns** (§2) as independent,
//!   composable checks ([`patterns`]);
//! * the **set-path** reasoning of Pattern 6, including the Fig. 9
//!   implications between set-comparison constraints ([`setpath`]);
//! * the **ring-constraint semantics** of Pattern 8 — an executable version
//!   of the Fig. 12 Euler diagram and a regenerated Table 1 ([`ring`]);
//! * Halpin's seven **formation rules** and the RIDL-A rules as lints, with
//!   the unsat-relevance classification of §3 ([`formation`], [`ridl`]);
//! * the **extension checks** sketched in §5, including unsatisfiability
//!   propagation ([`extensions`]);
//! * the **doom rule set** ([`doom`]): the unsat-relevant checks' findings
//!   closed under propagation, with provenance — the one implementation
//!   both the validator's E3 and `orm_dl`'s saturation engine use;
//! * a configurable [`Validator`] reproducing DogmaModeler's per-pattern
//!   settings (§4, Fig. 15), with revision caching and an incremental mode
//!   for interactive modeling;
//! * all paper figures as reusable [`fixtures`].
//!
//! # Quick start
//!
//! ```
//! use orm_core::{validate, CheckCode};
//! use orm_model::SchemaBuilder;
//!
//! // Fig. 1 of the paper: a PhD student must be both a Student and an
//! // Employee, but those types are declared mutually exclusive.
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
//!
//! let report = validate(&schema);
//! assert!(report.has_unsat());
//! assert_eq!(report.by_code(CheckCode::P2).count(), 1);
//! println!("{}", report.render(&schema));
//! ```
//!
//! # Soundness, not completeness
//!
//! A firing pattern *proves* the reported roles/types unpopulatable (the
//! cross-validation property tests in `tests/` check every flagged element
//! against the complete bounded model finder). The converse does not hold:
//! schemas can be unsatisfiable without any pattern firing — the paper shows
//! completeness is unattainable anyway, since full ORM constraint
//! satisfiability is undecidable. Pair the patterns with `orm-reasoner` or
//! `orm-dl` when completeness on a fragment is required; §4 of the paper
//! (and the `complete_vs_patterns` example) discusses exactly this
//! complementarity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod doom;
pub mod extensions;
pub mod fixtures;
pub mod formation;
pub mod patterns;
pub mod ridl;
pub mod ring;
pub mod setpath;
pub mod validator;

pub use diagnostics::{CheckCode, Finding, Report, Severity};
pub use patterns::{effective_value_cardinality, paper_patterns, Check, Trigger};
pub use validator::{validate, validate_all, EditHint, Validator, ValidatorSettings};
