//! Fault injectors: plant a minimal instance of each pattern's
//! contradiction into an existing schema.
//!
//! Each injector appends *fresh* elements (types, facts, constraints) whose
//! names are suffixed with a unique counter, so injection never interferes
//! with the host schema's satisfiable parts — the injected contradiction is
//! the only new unsatisfiability. This mirrors the paper's CCFORM setting
//! (§4): a large, mostly-sane ontology with isolated modeling mistakes.

use orm_model::{RingKind, Schema, SchemaBuilder, ValueConstraint};

/// Which pattern a fault triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Pattern 1: subtype without top common supertype.
    P1,
    /// Pattern 2: common subtype of exclusive types.
    P2,
    /// Pattern 3: exclusion over a mandatory role.
    P3,
    /// Pattern 4: frequency minimum above value cardinality.
    P4,
    /// Pattern 5: value + exclusion + frequency conflict.
    P5,
    /// Pattern 6: exclusion contradicting a subset path.
    P6,
    /// Pattern 7: uniqueness with frequency minimum above one.
    P7,
    /// Pattern 8: incompatible ring combination.
    P8,
    /// Pattern 9: subtype loop.
    P9,
    /// Extension 5 (beyond DL): acyclic ring with a mandatory role on a
    /// reflexive fact — every instance needs a successor, so some cycle
    /// must close.
    E5Trap,
    /// Beyond DL: incompatible ring kinds split across *two* ring
    /// constraints on the same fact (merged at check time).
    RingSplit,
    /// Beyond DL: spanning frequency whose window can never be met under
    /// set semantics (each tuple occurs exactly once).
    SpanFreq,
}

impl FaultKind {
    /// All nine faults in paper order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::P1,
        FaultKind::P2,
        FaultKind::P3,
        FaultKind::P4,
        FaultKind::P5,
        FaultKind::P6,
        FaultKind::P7,
        FaultKind::P8,
        FaultKind::P9,
    ];

    /// Faults whose contradiction the DL translation cannot express: the
    /// tableau reports the offending constructs as unmapped, so only the
    /// saturation engine decides these. (`P8` rings and `P9` proper-subtype
    /// cycles are in both lists.)
    pub const BEYOND_DL: [FaultKind; 5] = [
        FaultKind::P8,
        FaultKind::P9,
        FaultKind::E5Trap,
        FaultKind::RingSplit,
        FaultKind::SpanFreq,
    ];
}

/// Rebuild `schema` with the given faults appended. `tag` keeps names
/// unique when the same fault kind is injected repeatedly.
pub fn inject(schema: &Schema, fault: FaultKind, tag: usize) -> Schema {
    // Round-trip through the builder by copying the schema and appending;
    // Schema is Clone, and the injectors only need the mutation API plus
    // fresh elements, so we reconstruct via a builder seeded with a clone.
    let mut schema = schema.clone();
    let t = |name: &str| format!("__{name}_{tag}");

    // Local helper: build fresh elements through a scratch builder so the
    // checked constructors validate them, then splice with the mutation
    // API. Since fresh elements reference only fresh elements, appending
    // through a builder over the clone is simplest: reconstruct is not
    // needed — SchemaBuilder is only usable for new schemas, so we use a
    // micro-builder for the fresh parts and merge by re-adding.
    //
    // In practice the mutation API covers constraints and subtypes, and
    // types/facts must go through a builder. To keep this simple and
    // correct we rebuild: copy the textual dump? No — instead we build the
    // fault fragment in a throwaway schema and then replay it onto the
    // clone using the public API below.
    match fault {
        FaultKind::P1 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p1_a"));
            let b = frag.entity(&t("p1_b"));
            let c = frag.entity(&t("p1_c"));
            frag.subtype(c, a);
            frag.subtype(c, b);
        }
        FaultKind::P2 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let p = frag.entity(&t("p2_p"));
            let x = frag.entity(&t("p2_x"));
            let y = frag.entity(&t("p2_y"));
            let d = frag.entity(&t("p2_d"));
            frag.subtype(x, p);
            frag.subtype(y, p);
            frag.subtype(d, x);
            frag.subtype(d, y);
            frag.exclusive(&[x, y]);
        }
        FaultKind::P3 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p3_a"));
            let x = frag.entity(&t("p3_x"));
            let f1 = frag.fact(&t("p3_f1"), a, x);
            let f2 = frag.fact(&t("p3_f2"), a, x);
            let r1 = frag.schema.fact_type(f1).first();
            let r3 = frag.schema.fact_type(f2).first();
            frag.mandatory(r1);
            frag.exclusion(&[r1, r3]);
        }
        FaultKind::P4 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p4_a"));
            let v = frag.value(&t("p4_v"), &["x1", "x2"]);
            let f = frag.fact(&t("p4_f"), a, v);
            let r1 = frag.schema.fact_type(f).first();
            frag.frequency(r1, 3, Some(5));
        }
        FaultKind::P5 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let v = frag.value(&t("p5_v"), &["x1", "x2"]);
            let x = frag.entity(&t("p5_x"));
            let f1 = frag.fact(&t("p5_f1"), v, x);
            let f2 = frag.fact(&t("p5_f2"), v, x);
            let f3 = frag.fact(&t("p5_f3"), v, x);
            let r1 = frag.schema.fact_type(f1).first();
            let r3 = frag.schema.fact_type(f2).first();
            let r5 = frag.schema.fact_type(f3).first();
            frag.exclusion(&[r1, r3, r5]);
        }
        FaultKind::P6 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p6_a"));
            let x = frag.entity(&t("p6_x"));
            let f1 = frag.fact(&t("p6_f1"), a, x);
            let f2 = frag.fact(&t("p6_f2"), a, x);
            let r1 = frag.schema.fact_type(f1).first();
            let r3 = frag.schema.fact_type(f2).first();
            frag.subset(r1, r3);
            frag.exclusion(&[r1, r3]);
        }
        FaultKind::P7 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p7_a"));
            let x = frag.entity(&t("p7_x"));
            let f = frag.fact(&t("p7_f"), a, x);
            let r1 = frag.schema.fact_type(f).first();
            frag.unique(r1);
            frag.frequency(r1, 2, Some(5));
        }
        FaultKind::P8 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let w = frag.entity(&t("p8_w"));
            let f = frag.fact(&t("p8_f"), w, w);
            frag.ring(f, &[RingKind::Acyclic, RingKind::Symmetric]);
        }
        FaultKind::P9 => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("p9_a"));
            let b = frag.entity(&t("p9_b"));
            let c = frag.entity(&t("p9_c"));
            frag.subtype(a, b);
            frag.subtype(b, c);
            frag.subtype(c, a);
        }
        FaultKind::E5Trap => {
            let mut frag = FragmentWriter::new(&mut schema);
            let w = frag.entity(&t("e5_w"));
            let f = frag.fact(&t("e5_f"), w, w);
            let r1 = frag.schema.fact_type(f).first();
            frag.ring(f, &[RingKind::Acyclic]);
            frag.mandatory(r1);
        }
        FaultKind::RingSplit => {
            let mut frag = FragmentWriter::new(&mut schema);
            let w = frag.entity(&t("rs_w"));
            let f = frag.fact(&t("rs_f"), w, w);
            frag.ring(f, &[RingKind::Symmetric]);
            frag.ring(f, &[RingKind::Acyclic]);
        }
        FaultKind::SpanFreq => {
            let mut frag = FragmentWriter::new(&mut schema);
            let a = frag.entity(&t("sf_a"));
            let x = frag.entity(&t("sf_x"));
            let f = frag.fact(&t("sf_f"), a, x);
            let ft = frag.schema.fact_type(f);
            let (r1, r2) = (ft.first(), ft.second());
            frag.frequency_span(&[r1, r2], 2, Some(4));
        }
    }
    schema
}

/// Inject every fault of `kinds` with distinct tags.
pub fn inject_all(schema: &Schema, kinds: &[FaultKind]) -> Schema {
    let mut out = schema.clone();
    for (i, k) in kinds.iter().enumerate() {
        out = inject(&out, *k, i);
    }
    out
}

/// Thin wrapper over the schema mutation API that can also mint fresh types
/// and facts. Types/facts normally come from `SchemaBuilder`; for fault
/// injection we clone the host schema and re-open it through a builder
/// facade.
struct FragmentWriter<'a> {
    schema: &'a mut Schema,
}

impl<'a> FragmentWriter<'a> {
    fn new(schema: &'a mut Schema) -> Self {
        FragmentWriter { schema }
    }

    fn entity(&mut self, name: &str) -> orm_model::ObjectTypeId {
        splice_types(self.schema, |b| b.entity_type(name).expect("fresh fault name"))
    }

    fn value(&mut self, name: &str, values: &[&str]) -> orm_model::ObjectTypeId {
        splice_types(self.schema, |b| {
            b.value_type(name, Some(ValueConstraint::enumeration(values.iter().copied())))
                .expect("fresh fault name")
        })
    }

    fn fact(
        &mut self,
        name: &str,
        p0: orm_model::ObjectTypeId,
        p1: orm_model::ObjectTypeId,
    ) -> orm_model::FactTypeId {
        splice_types(self.schema, |b| b.fact_type(name, p0, p1).expect("fresh fault name"))
    }

    fn subtype(&mut self, sub: orm_model::ObjectTypeId, sup: orm_model::ObjectTypeId) {
        self.schema.add_subtype(sub, sup).expect("fresh subtype link");
    }

    fn mandatory(&mut self, r: orm_model::RoleId) {
        self.schema.add_constraint(orm_model::Constraint::Mandatory(orm_model::Mandatory {
            roles: vec![r],
        }));
    }

    fn unique(&mut self, r: orm_model::RoleId) {
        self.schema.add_constraint(orm_model::Constraint::Uniqueness(orm_model::Uniqueness {
            roles: vec![r],
        }));
    }

    fn frequency(&mut self, r: orm_model::RoleId, min: u32, max: Option<u32>) {
        self.frequency_span(&[r], min, max);
    }

    fn frequency_span(&mut self, roles: &[orm_model::RoleId], min: u32, max: Option<u32>) {
        self.schema.add_constraint(orm_model::Constraint::Frequency(orm_model::Frequency {
            roles: roles.to_vec(),
            min,
            max,
        }));
    }

    fn exclusion(&mut self, roles: &[orm_model::RoleId]) {
        self.schema.add_constraint(orm_model::Constraint::SetComparison(
            orm_model::SetComparison {
                kind: orm_model::SetComparisonKind::Exclusion,
                args: roles.iter().map(|r| orm_model::RoleSeq::single(*r)).collect(),
            },
        ));
    }

    fn subset(&mut self, sub: orm_model::RoleId, sup: orm_model::RoleId) {
        self.schema.add_constraint(orm_model::Constraint::SetComparison(
            orm_model::SetComparison {
                kind: orm_model::SetComparisonKind::Subset,
                args: vec![orm_model::RoleSeq::single(sub), orm_model::RoleSeq::single(sup)],
            },
        ));
    }

    fn exclusive(&mut self, types: &[orm_model::ObjectTypeId]) {
        self.schema.add_constraint(orm_model::Constraint::ExclusiveTypes(
            orm_model::ExclusiveTypes { types: types.to_vec() },
        ));
    }

    fn ring(&mut self, fact: orm_model::FactTypeId, kinds: &[RingKind]) {
        self.schema.add_constraint(orm_model::Constraint::Ring(orm_model::Ring {
            fact_type: fact,
            kinds: kinds.iter().copied().collect(),
        }));
    }
}

/// Run a builder step against the schema, moved into a builder (an empty
/// placeholder holds its place meanwhile), then move the enlarged schema
/// back.
fn splice_types<T>(schema: &mut Schema, add: impl FnOnce(&mut SchemaBuilder) -> T) -> T {
    let taken = std::mem::replace(schema, SchemaBuilder::new("").finish());
    let mut builder = SchemaBuilder::from_schema(taken);
    let out = add(&mut builder);
    *schema = builder.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenConfig;

    #[test]
    fn each_fault_adds_elements() {
        let base = crate::generate_clean(&GenConfig::small(3));
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            let faulty = inject(&base, *kind, i);
            assert!(faulty.size() > base.size(), "{kind:?} did not grow the schema");
        }
    }

    #[test]
    fn beyond_dl_faults_add_elements() {
        let base = crate::generate_clean(&GenConfig::small(4));
        for (i, kind) in FaultKind::BEYOND_DL.iter().enumerate() {
            let faulty = inject(&base, *kind, 100 + i);
            assert!(faulty.size() > base.size(), "{kind:?} did not grow the schema");
        }
    }

    #[test]
    fn inject_all_applies_every_fault() {
        let base = crate::generate_clean(&GenConfig::small(3));
        let faulty = inject_all(&base, &FaultKind::ALL);
        assert!(faulty.object_type_count() >= base.object_type_count() + 9 * 2);
    }

    #[test]
    fn injection_does_not_touch_existing_elements() {
        let base = crate::generate_clean(&GenConfig::small(3));
        let faulty = inject(&base, FaultKind::P7, 0);
        for (id, ot) in base.object_types() {
            assert_eq!(faulty.object_type(id).name(), ot.name());
        }
        for (id, c) in base.constraints() {
            assert_eq!(faulty.constraint(id), Some(c));
        }
    }
}
