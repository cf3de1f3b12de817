//! Columnar population indexes: interned values, sorted id columns and
//! bitset membership — the data layout the compiled [`crate::CheckPlan`]
//! executes over.
//!
//! A [`Population`] stores `BTreeSet<Value>` extents and
//! `BTreeSet<(Value, Value)>` fact tables: ideal for incremental edits and
//! tiny witness models, hopeless for validating millions of rows (every
//! membership probe re-compares owned strings, every projection allocates).
//! [`ColumnarPopulation`] freezes one population into:
//!
//! * a **value interner** — every distinct [`Value`] of the population
//!   mapped to a dense `u32` id, assigned in ascending `Value` order so
//!   **id order equals value order**. Sorted id columns therefore iterate
//!   in exactly the order the `BTreeSet`-based validator iterates values,
//!   which is what lets the compiled plan reproduce the per-violation
//!   checker's output verbatim (down to ring witnesses, which report the
//!   *first* offending tuple in value order);
//! * per object type, a sorted **extent column** plus a **membership
//!   bitset** over the interned universe (O(1) `contains`, word-wise
//!   intersection/difference);
//! * per fact type, a lexicographically sorted **tuple column** of id
//!   pairs (group-count scans, and the sorted relation the shared
//!   [`crate::ring_witness`] evaluator takes);
//! * per role, the sorted deduplicated **projection column** and its
//!   bitset (mandatory and set-comparison primitives).

use crate::Population;
use orm_model::{Schema, Value};
use std::collections::BTreeSet;

/// A fixed-size bitset over the interned value universe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bitset sized for `n` ids.
    pub fn with_capacity(n: usize) -> BitSet {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Set bit `i`.
    pub fn insert(&mut self, i: u32) {
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: u32) -> bool {
        self.words.get((i / 64) as usize).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Ascending ids present in both `self` and `other`.
    pub fn iter_and<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = u32> + 'a {
        iter_bits(self.words.iter().zip(&other.words).map(|(a, b)| a & b))
    }

    /// Union `other` into `self` (missing words are treated as zero).
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Ascending bit positions of a word stream.
fn iter_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u32> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + bit)
            }
        })
    })
}

/// One population frozen into columnar form against one schema (see the
/// [module docs](self) for the layout).
#[derive(Clone, Debug)]
pub struct ColumnarPopulation {
    /// The interned universe, ascending: `values[id]` is the value of `id`.
    values: Vec<Value>,
    /// Sorted extent column per object type (indexed by `ObjectTypeId`).
    extent_cols: Vec<Vec<u32>>,
    /// Extent membership bitset per object type.
    extent_bits: Vec<BitSet>,
    /// Lexicographically sorted tuple column per fact type.
    fact_cols: Vec<Vec<(u32, u32)>>,
    /// Sorted, deduplicated projection column per role.
    role_cols: Vec<Vec<u32>>,
    /// Projection membership bitset per role.
    role_bits: Vec<BitSet>,
}

impl ColumnarPopulation {
    /// Freeze `pop` into columnar form. One pass interns the universe in
    /// ascending value order; every column is then a monotone map of an
    /// already-sorted `BTreeSet` iteration, so no per-column sort is
    /// needed except for second-position role projections.
    pub fn build(schema: &Schema, pop: &Population) -> ColumnarPopulation {
        let mut universe: BTreeSet<&Value> = BTreeSet::new();
        for (ty, _) in schema.object_types() {
            universe.extend(pop.extent(ty).iter());
        }
        for (fid, _) in schema.fact_types() {
            for (a, b) in pop.tuples(fid) {
                universe.insert(a);
                universe.insert(b);
            }
        }
        let values: Vec<Value> = universe.into_iter().cloned().collect();
        let n = values.len();
        let id_of = |v: &Value| -> u32 {
            values.binary_search(v).expect("population value was interned") as u32
        };

        let n_types = schema.object_type_count();
        let mut extent_cols: Vec<Vec<u32>> = vec![Vec::new(); n_types];
        let mut extent_bits: Vec<BitSet> = vec![BitSet::with_capacity(n); n_types];
        for (ty, _) in schema.object_types() {
            let col = &mut extent_cols[ty.index()];
            col.reserve(pop.extent(ty).len());
            for v in pop.extent(ty) {
                let id = id_of(v);
                col.push(id);
                extent_bits[ty.index()].insert(id);
            }
        }

        let n_facts = schema.fact_type_count();
        let n_roles = schema.roles().count();
        let mut fact_cols: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_facts];
        let mut role_cols: Vec<Vec<u32>> = vec![Vec::new(); n_roles];
        let mut role_bits: Vec<BitSet> = vec![BitSet::with_capacity(n); n_roles];
        for (fid, ft) in schema.fact_types() {
            let col = &mut fact_cols[fid.index()];
            col.reserve(pop.fact_count(fid));
            for (a, b) in pop.tuples(fid) {
                col.push((id_of(a), id_of(b)));
            }
            let [r0, r1] = ft.roles();
            // First column: already ascending (lexicographic tuple order);
            // dedup on the fly. Second column: sort + dedup.
            let first = &mut role_cols[r0.index()];
            for &(a, _) in col.iter() {
                if first.last() != Some(&a) {
                    first.push(a);
                }
                role_bits[r0.index()].insert(a);
            }
            let second = &mut role_cols[r1.index()];
            second.extend(col.iter().map(|&(_, b)| b));
            second.sort_unstable();
            second.dedup();
            for &b in second.iter() {
                role_bits[r1.index()].insert(b);
            }
        }

        ColumnarPopulation { values, extent_cols, extent_bits, fact_cols, role_cols, role_bits }
    }

    /// Size of the interned value universe.
    pub fn universe_len(&self) -> usize {
        self.values.len()
    }

    /// The value behind an interned id.
    pub fn value(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Sorted extent column of an object type.
    pub fn extent_col(&self, ty: orm_model::ObjectTypeId) -> &[u32] {
        &self.extent_cols[ty.index()]
    }

    /// Extent membership bitset of an object type.
    pub fn extent_bits(&self, ty: orm_model::ObjectTypeId) -> &BitSet {
        &self.extent_bits[ty.index()]
    }

    /// Sorted tuple column of a fact type.
    pub fn fact_col(&self, fact: orm_model::FactTypeId) -> &[(u32, u32)] {
        &self.fact_cols[fact.index()]
    }

    /// Sorted, deduplicated projection column of a role.
    pub fn role_col(&self, role: orm_model::RoleId) -> &[u32] {
        &self.role_cols[role.index()]
    }

    /// Projection membership bitset of a role.
    pub fn role_bits(&self, role: orm_model::RoleId) -> &BitSet {
        &self.role_bits[role.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::SchemaBuilder;

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::with_capacity(130);
        let mut b = BitSet::with_capacity(130);
        for i in [0u32, 63, 64, 129] {
            a.insert(i);
        }
        b.insert(63);
        b.insert(129);
        assert!(a.contains(0) && a.contains(129) && !a.contains(1));
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter_and(&b).collect::<Vec<_>>(), vec![63, 129]);
        let mut u = BitSet::with_capacity(130);
        u.union_with(&b);
        assert_eq!(u.len(), 2);
        assert!(!BitSet::with_capacity(10).contains(9));
        assert!(BitSet::with_capacity(0).is_empty());
    }

    #[test]
    fn ids_follow_value_order_and_columns_are_sorted() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let s = b.finish();
        let [r0, r1] = s.fact_type(f).roles();

        let mut pop = Population::new();
        pop.add_instance(a, "b");
        pop.add_instance(a, "a");
        pop.add_fact(f, "b", "z");
        pop.add_fact(f, "a", "y");
        pop.add_fact(f, "a", "z");
        let cols = ColumnarPopulation::build(&s, &pop);

        // Universe ascending: a < b < y < z.
        assert_eq!(cols.universe_len(), 4);
        let vals: Vec<String> = (0..4).map(|i| cols.value(i).to_string()).collect();
        assert_eq!(vals, vec!["'a'", "'b'", "'y'", "'z'"]);

        assert_eq!(cols.extent_col(a), &[0, 1]);
        assert!(cols.extent_bits(a).contains(0));
        assert!(!cols.extent_bits(x).contains(0));
        // Tuples lexicographic: (a,y) < (a,z) < (b,z).
        assert_eq!(cols.fact_col(f), &[(0, 2), (0, 3), (1, 3)]);
        assert_eq!(cols.role_col(r0), &[0, 1]);
        assert_eq!(cols.role_col(r1), &[2, 3]);
        assert!(cols.role_bits(r1).contains(3));
    }
}
