//! Property tests for the metamodel's derived structures.

use orm_model::{ObjectTypeId, Schema, SchemaBuilder};
use proptest::prelude::*;

/// Build a schema with `n` types and random subtype edges (cycles allowed).
fn subtype_schema(n: usize, edges: &[(usize, usize)]) -> Schema {
    let mut b = SchemaBuilder::new("prop");
    let types: Vec<ObjectTypeId> =
        (0..n).map(|i| b.entity_type(&format!("T{i}")).expect("fresh")).collect();
    for (sub, sup) in edges {
        let (sub, sup) = (types[sub % n], types[sup % n]);
        if sub != sup {
            let _ = b.subtype(sub, sup);
        }
    }
    b.finish()
}

fn edges_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(2 * n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// supers/subs closures are mutually inverse: S ∈ supers(T) ⟺ T ∈ subs(S).
    #[test]
    fn closures_are_inverse(edges in edges_strategy(6)) {
        let schema = subtype_schema(6, &edges);
        let idx = schema.index();
        for (a, _) in schema.object_types() {
            for (b, _) in schema.object_types() {
                prop_assert_eq!(
                    idx.supers(a).contains(&b),
                    idx.subs(b).contains(&a),
                    "asymmetry between supers({}) and subs({})",
                    a,
                    b
                );
            }
        }
    }

    /// The transitive closure is transitive.
    #[test]
    fn closure_is_transitive(edges in edges_strategy(6)) {
        let schema = subtype_schema(6, &edges);
        let idx = schema.index();
        for (a, _) in schema.object_types() {
            for &b in idx.supers(a) {
                for &c in idx.supers(b) {
                    prop_assert!(
                        idx.supers(a).contains(&c),
                        "{} reaches {} reaches {}, but the closure misses it",
                        a,
                        b,
                        c
                    );
                }
            }
        }
    }

    /// may_overlap is reflexive and symmetric.
    #[test]
    fn may_overlap_is_reflexive_and_symmetric(edges in edges_strategy(6)) {
        let schema = subtype_schema(6, &edges);
        let idx = schema.index();
        for (a, _) in schema.object_types() {
            prop_assert!(idx.may_overlap(a, a));
            for (b, _) in schema.object_types() {
                prop_assert_eq!(idx.may_overlap(a, b), idx.may_overlap(b, a));
            }
        }
    }

    /// A type is on a cycle exactly when one of its direct supertypes
    /// reaches back to it.
    #[test]
    fn cycle_detection_is_consistent(edges in edges_strategy(6)) {
        let schema = subtype_schema(6, &edges);
        let idx = schema.index();
        for (t, _) in schema.object_types() {
            let via_direct = idx
                .direct_supers(t)
                .iter()
                .any(|s| *s == t || idx.supers(*s).contains(&t));
            prop_assert_eq!(idx.on_subtype_cycle(t), via_direct);
        }
    }

    /// Revision strictly increases across any sequence of successful edits.
    #[test]
    fn revision_is_monotone(edits in prop::collection::vec(0u8..3, 1..20)) {
        let mut b = SchemaBuilder::new("rev");
        let a = b.entity_type("A").expect("fresh");
        let x = b.entity_type("X").expect("fresh");
        let f = b.fact_type("f", a, x).expect("fresh");
        let role = b.schema().fact_type(f).first();
        let mut schema = b.finish();
        let mut last = schema.revision();
        let mut constraints = Vec::new();
        for e in edits {
            match e {
                0 => {
                    let id = schema.add_constraint(orm_model::Constraint::Mandatory(
                        orm_model::Mandatory { roles: vec![role] },
                    ));
                    constraints.push(id);
                }
                1 => {
                    if let Some(id) = constraints.pop() {
                        schema.remove_constraint(id);
                    } else {
                        continue;
                    }
                }
                _ => {
                    schema.set_value_constraint(x, None);
                }
            }
            prop_assert!(schema.revision() > last);
            last = schema.revision();
        }
    }

    /// A cloned schema is equal by structure: its index answers every
    /// supertype and subtype query exactly like the original's.
    #[test]
    fn clone_preserves_index_semantics(edges in edges_strategy(5)) {
        let schema = subtype_schema(5, &edges);
        let clone = schema.clone();
        let (i1, i2) = (schema.index(), clone.index());
        for (t, _) in schema.object_types() {
            prop_assert_eq!(i1.supers(t), i2.supers(t));
            prop_assert_eq!(i1.subs(t), i2.subs(t));
        }
    }
}
