//! The validator: configurable check execution with revision-based caching
//! and an incremental mode for interactive tools.
//!
//! This reproduces the role DogmaModeler's *Validator Settings* window plays
//! in the paper (§4, Fig. 15): each pattern can be enabled or disabled
//! independently, and validation is cheap enough to re-run on every edit of
//! the schema.

use crate::diagnostics::{CheckCode, Finding, Report};
use crate::extensions::{propagate, E1, E2, E4, E5};
use crate::formation::formation_rules;
use crate::patterns::{paper_patterns, Check, Trigger};
use crate::ridl::ridl_rules;
use orm_model::{ConstraintKind, Schema};
use parking_lot::Mutex;
use std::collections::BTreeSet;

/// Which checks run. Enabling [`CheckCode::E3`] runs consequence
/// propagation ([`propagate`]) over the other checks' findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidatorSettings {
    enabled: BTreeSet<CheckCode>,
}

impl Default for ValidatorSettings {
    /// The paper's default: the nine patterns, no lints, no propagation.
    fn default() -> Self {
        ValidatorSettings { enabled: CheckCode::PATTERNS.into_iter().collect() }
    }
}

impl ValidatorSettings {
    /// The nine patterns only (the paper's default).
    pub fn patterns_only() -> Self {
        Self::default()
    }

    /// Everything: patterns, formation rules, RIDL lints, extensions,
    /// propagation.
    pub fn all() -> Self {
        ValidatorSettings { enabled: CheckCode::all().collect() }
    }

    /// Formation-rule and RIDL lints only.
    pub fn lints_only() -> Self {
        ValidatorSettings {
            enabled: CheckCode::FORMATION_RULES.into_iter().chain(CheckCode::RIDL_RULES).collect(),
        }
    }

    /// No checks at all (build up with [`ValidatorSettings::with`]).
    pub fn none() -> Self {
        ValidatorSettings { enabled: BTreeSet::new() }
    }

    /// Enable a check.
    pub fn with(mut self, code: CheckCode) -> Self {
        self.enabled.insert(code);
        self
    }

    /// Disable a check (the Fig. 15 checkbox unticked).
    pub fn without(mut self, code: CheckCode) -> Self {
        self.enabled.remove(&code);
        self
    }

    /// Enable propagation (E3).
    pub fn with_propagation(self) -> Self {
        self.with(CheckCode::E3)
    }

    /// Whether a check is enabled.
    pub fn is_enabled(&self, code: CheckCode) -> bool {
        self.enabled.contains(&code)
    }

    /// The enabled checks.
    pub fn enabled(&self) -> impl Iterator<Item = CheckCode> + '_ {
        self.enabled.iter().copied()
    }
}

/// A hint describing what the last schema edit touched; the incremental
/// validator re-runs only the checks whose [`Trigger`]s match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditHint {
    /// A constraint of this kind was added, removed or changed.
    Constraint(ConstraintKind),
    /// A subtype link changed.
    Subtyping,
    /// A value constraint changed.
    Values,
    /// Object/fact types were added; everything structural may change.
    Structure,
}

impl EditHint {
    fn matches(&self, trigger: &Trigger) -> bool {
        match (self, trigger) {
            (EditHint::Constraint(a), Trigger::Constraint(b)) => a == b,
            (EditHint::Subtyping, Trigger::Subtyping) => true,
            (EditHint::Values, Trigger::Values) => true,
            // Structural edits invalidate everything; conservative.
            (EditHint::Structure, _) => true,
            _ => false,
        }
    }
}

/// Runs the enabled checks over schemas, caching by schema revision.
pub struct Validator {
    settings: ValidatorSettings,
    checks: Vec<Box<dyn Check>>,
    cache: Mutex<Option<(u64, Report)>>,
}

impl Validator {
    /// Validator with the paper's default settings (nine patterns).
    pub fn new() -> Self {
        Self::with_settings(ValidatorSettings::default())
    }

    /// Validator with explicit settings.
    pub fn with_settings(settings: ValidatorSettings) -> Self {
        let mut checks = checks();
        checks.retain(|c| settings.is_enabled(c.code()));
        Validator { settings, checks, cache: Mutex::new(None) }
    }

    /// The active settings.
    pub fn settings(&self) -> &ValidatorSettings {
        &self.settings
    }

    /// Validate `schema`, returning the cached report when the schema has
    /// not changed since the last call.
    pub fn validate(&self, schema: &Schema) -> Report {
        if let Some((rev, report)) = self.cache.lock().as_ref() {
            if *rev == schema.revision() {
                return report.clone();
            }
        }
        let report = self.run_all(schema);
        *self.cache.lock() = Some((schema.revision(), report.clone()));
        report
    }

    fn run_all(&self, schema: &Schema) -> Report {
        let idx = schema.index();
        let mut findings = Vec::new();
        for check in &self.checks {
            check.run(schema, &idx, &mut findings);
        }
        if self.settings.is_enabled(CheckCode::E3) {
            let extra = propagate(schema, &idx, &findings);
            findings.extend(extra);
        }
        Report { findings, schema_revision: schema.revision() }
    }

    /// Incremental re-validation: re-run only the checks triggered by
    /// `hint`, merging with the previous report's findings for the
    /// untouched checks. Falls back to a full run when no previous report
    /// exists.
    ///
    /// This is the interactive-modeling optimization benchmarked in
    /// `ablation_incremental`; [`Validator::validate`] is always the
    /// semantically safe choice.
    pub fn validate_incremental(&self, schema: &Schema, hint: &EditHint) -> Report {
        let previous = self.cache.lock().clone();
        let Some((_, previous)) = previous else {
            return self.validate(schema);
        };
        let idx = schema.index();
        let mut findings = Vec::new();
        let mut rerun: BTreeSet<CheckCode> = BTreeSet::new();
        for check in &self.checks {
            if check.triggers().iter().any(|t| hint.matches(t)) {
                rerun.insert(check.code());
                check.run(schema, &idx, &mut findings);
            }
        }
        // Keep previous findings of untouched checks (except E3, rebuilt
        // below from the merged seed).
        for f in previous.findings {
            if !rerun.contains(&f.code) && f.code != CheckCode::E3 {
                findings.push(f);
            }
        }
        sort_findings(&mut findings);
        if self.settings.is_enabled(CheckCode::E3) {
            let extra = propagate(schema, &idx, &findings);
            findings.extend(extra);
        }
        let report = Report { findings, schema_revision: schema.revision() };
        *self.cache.lock() = Some((schema.revision(), report.clone()));
        report
    }
}

impl Default for Validator {
    fn default() -> Self {
        Self::new()
    }
}

/// Every check object, in report order: the nine patterns, the formation
/// rules, the RIDL rules, then E1, E2, E4 and E5. E3 is no check object: it
/// closes over the others' findings.
pub(crate) fn checks() -> Vec<Box<dyn Check>> {
    let mut checks: Vec<Box<dyn Check>> = Vec::new();
    checks.extend(paper_patterns());
    checks.extend(formation_rules());
    checks.extend(ridl_rules());
    checks.push(Box::new(E1));
    checks.push(Box::new(E2));
    checks.push(Box::new(E4));
    checks.push(Box::new(E5));
    checks
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| a.code.cmp(&b.code).then_with(|| a.message.cmp(&b.message)));
}

/// One-shot validation with default settings.
pub fn validate(schema: &Schema) -> Report {
    Validator::new().validate(schema)
}

/// One-shot validation with every check enabled.
pub fn validate_all(schema: &Schema) -> Report {
    Validator::with_settings(ValidatorSettings::all()).validate(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use orm_model::SchemaBuilder;

    fn fig1() -> Schema {
        let mut b = SchemaBuilder::new("fig1");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("PhdStudent").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        b.exclusive_types([student, employee]).unwrap();
        b.finish()
    }

    #[test]
    fn default_settings_enable_exactly_the_patterns() {
        let s = ValidatorSettings::default();
        for code in CheckCode::PATTERNS {
            assert!(s.is_enabled(code));
        }
        for code in CheckCode::FORMATION_RULES {
            assert!(!s.is_enabled(code));
        }
        assert!(!s.is_enabled(CheckCode::E3));
    }

    #[test]
    fn with_and_without_toggle_checks() {
        let s = ValidatorSettings::default().without(CheckCode::P8).with(CheckCode::Fr6);
        assert!(!s.is_enabled(CheckCode::P8));
        assert!(s.is_enabled(CheckCode::Fr6));
        assert_eq!(s.enabled().count(), 9);
    }

    #[test]
    fn validate_finds_fig1_problem() {
        let report = validate(&fig1());
        assert!(report.has_unsat());
        assert_eq!(report.by_code(CheckCode::P2).count(), 1);
    }

    #[test]
    fn disabled_pattern_stays_silent() {
        let v = Validator::with_settings(ValidatorSettings::default().without(CheckCode::P2));
        let report = v.validate(&fig1());
        assert!(!report.has_unsat());
    }

    #[test]
    fn cache_hits_on_unchanged_schema() {
        let v = Validator::new();
        let s = fig1();
        let r1 = v.validate(&s);
        let r2 = v.validate(&s);
        assert_eq!(r1, r2);
    }

    #[test]
    fn cache_invalidated_by_edit() {
        let v = Validator::new();
        let mut s = fig1();
        let before = v.validate(&s);
        assert!(before.has_unsat());
        // Remove the exclusive-types constraint (the only constraint).
        let cid = s.constraints().next().map(|(id, _)| id).unwrap();
        s.remove_constraint(cid);
        let after = v.validate(&s);
        assert!(!after.has_unsat());
        assert_eq!(after.schema_revision, s.revision());
    }

    #[test]
    fn incremental_matches_full_validation() {
        let v = Validator::new();
        let mut s = fig1();
        v.validate(&s); // prime the cache
        let cid = s.constraints().next().map(|(id, _)| id).unwrap();
        s.remove_constraint(cid);
        let incremental =
            v.validate_incremental(&s, &EditHint::Constraint(ConstraintKind::ExclusiveTypes));
        let full = Validator::new().validate(&s);
        assert_eq!(incremental.has_unsat(), full.has_unsat());
        assert_eq!(incremental.unsat_types(), full.unsat_types());
    }

    #[test]
    fn incremental_without_cache_falls_back_to_full() {
        let v = Validator::new();
        let s = fig1();
        let report = v.validate_incremental(&s, &EditHint::Subtyping);
        assert!(report.has_unsat());
    }

    #[test]
    fn propagation_runs_when_enabled() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let bb = b.entity_type("B").unwrap();
        let c = b.entity_type("C").unwrap();
        let sub = b.entity_type("Sub").unwrap();
        b.subtype(c, a).unwrap();
        b.subtype(c, bb).unwrap();
        b.subtype(sub, c).unwrap(); // hangs off the P1-doomed C
        let s = b.finish();
        let plain = validate(&s);
        assert!(plain.unsat_types().contains(&c));
        assert!(!plain.unsat_types().contains(&sub));
        let with_prop =
            Validator::with_settings(ValidatorSettings::default().with_propagation()).validate(&s);
        assert!(with_prop.unsat_types().contains(&sub));
        assert_eq!(with_prop.by_code(CheckCode::E3).count(), 1);
    }

    #[test]
    fn validate_all_includes_lints() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        b.fact_type("f", a, a).unwrap(); // no uniqueness: V2 guideline
        let s = b.finish();
        let report = validate_all(&s);
        assert!(report.by_code(CheckCode::V2).count() == 1);
        assert!(report.by_severity(Severity::Guideline).count() >= 1);
    }

    #[test]
    fn clean_schema_produces_clean_report() {
        let mut b = SchemaBuilder::new("clean");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.unique([r]).unwrap();
        b.mandatory(r).unwrap();
        let s = b.finish();
        assert!(validate(&s).is_clean());
    }
}
