//! Backtracking search for a satisfying population.
//!
//! The search decides, in order:
//!
//! 1. an extent (subset of a candidate pool) for every object type, in a
//!    topological order that visits supertypes before subtypes so that
//!    subset/strictness/exclusion constraints prune immediately;
//! 2. a fact table (subset of the extent product) for every fact type,
//!    with all per-fact constraints (uniqueness, frequency, rings) checked
//!    the moment the table is chosen.
//!
//! Candidate pools are constructed per *subtype component*: types connected
//! through subtyping must be able to share instances, while instances never
//! need to flow between components (ORM's implicit type exclusion). A pool
//! mixes fresh abstract individuals with a clamped prefix of each value
//! constraint's enumeration — constraints only inspect values through
//! membership and equality, so any model is isomorphic to one over these
//! pools (up to the size bounds).
//!
//! Every candidate solution is re-verified with the population checker
//! (`orm_population::check_indexed`, reusing the search's schema index)
//! before being returned, so a [`Outcome::Satisfiable`] verdict never
//! depends on the pruning logic being right.

use orm_population::{check_indexed, ring_witness, CheckOptions, Population};

use orm_model::{Constraint, FactTypeId, ObjectTypeId, RoleId, Schema, SchemaIndex, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Search bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Maximum instances per object-type extent.
    pub max_extent: usize,
    /// Fresh abstract individuals available per subtype component.
    pub fresh_per_component: usize,
    /// Maximum tuples per fact table.
    pub max_tuples: usize,
    /// Maximum number of search nodes (decision points) before giving up.
    pub max_nodes: u64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { max_extent: 3, fresh_per_component: 3, max_tuples: 4, max_nodes: 2_000_000 }
    }
}

impl Bounds {
    /// Small bounds for quick checks in property tests.
    pub fn small() -> Self {
        Bounds { max_extent: 2, fresh_per_component: 2, max_tuples: 3, max_nodes: 200_000 }
    }
}

/// A population element the model must make non-empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Require the role's column to be non-empty.
    Role(RoleId),
    /// Require the type's extent to be non-empty.
    Type(ObjectTypeId),
}

/// Result of a bounded search.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A verified model populating all targets.
    Satisfiable(Population),
    /// The bounded space contains no such model.
    UnsatWithinBounds,
    /// `max_nodes` was exhausted before the space was covered.
    BudgetExhausted,
}

impl Outcome {
    /// Whether this outcome is a satisfiability witness.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_))
    }

    /// Whether the bounded space was fully refuted.
    pub fn is_unsat_within_bounds(&self) -> bool {
        matches!(self, Outcome::UnsatWithinBounds)
    }
}

/// Search for a model of `schema` populating all `targets`.
pub fn find_model(schema: &Schema, targets: &[Target], bounds: Bounds) -> Outcome {
    let idx = schema.index();
    let searcher = Searcher::new(schema, &idx, targets, bounds);
    searcher.run()
}

struct Searcher<'a> {
    schema: &'a Schema,
    idx: &'a SchemaIndex,
    bounds: Bounds,
    type_order: Vec<ObjectTypeId>,
    candidates: Vec<Vec<Value>>,
    target_types: BTreeSet<ObjectTypeId>,
    target_facts: BTreeSet<FactTypeId>,
    options: CheckOptions,
}

impl<'a> Searcher<'a> {
    fn new(schema: &'a Schema, idx: &'a SchemaIndex, targets: &[Target], bounds: Bounds) -> Self {
        let mut target_types = BTreeSet::new();
        let mut target_facts = BTreeSet::new();
        for t in targets {
            match t {
                Target::Type(ty) => {
                    target_types.insert(*ty);
                }
                Target::Role(r) => {
                    target_facts.insert(schema.role(*r).fact_type());
                    // A populated role needs a populated player.
                    target_types.insert(schema.player(*r));
                }
            }
        }
        Searcher {
            schema,
            idx,
            bounds,
            type_order: topological_order(schema, idx),
            candidates: candidate_pools(schema, idx, bounds),
            target_types,
            target_facts,
            options: CheckOptions::default(),
        }
    }

    fn run(&self) -> Outcome {
        let mut pop = Population::new();
        let mut budget = self.bounds.max_nodes;
        match self.assign_types(0, &mut pop, &mut budget) {
            SearchResult::Found(pop) => Outcome::Satisfiable(pop),
            SearchResult::Exhausted => Outcome::UnsatWithinBounds,
            SearchResult::OutOfBudget => Outcome::BudgetExhausted,
        }
    }

    fn assign_types(
        &self,
        position: usize,
        pop: &mut Population,
        budget: &mut u64,
    ) -> SearchResult {
        if *budget == 0 {
            return SearchResult::OutOfBudget;
        }
        *budget -= 1;
        if position == self.type_order.len() {
            let facts: Vec<FactTypeId> = self.schema.fact_types().map(|(id, _)| id).collect();
            return self.assign_facts(&facts, 0, pop, budget);
        }
        let ty = self.type_order[position];
        let pool = &self.candidates[ty.index()];
        let min_size = usize::from(self.target_types.contains(&ty));
        let max_size = self.bounds.max_extent.min(pool.len());

        for size in min_size..=max_size {
            for combo in combinations(pool, size) {
                if !self.extent_consistent(ty, &combo, pop) {
                    continue;
                }
                for v in &combo {
                    pop.add_instance(ty, v.clone());
                }
                match self.assign_types(position + 1, pop, budget) {
                    SearchResult::Exhausted => {}
                    other => return other,
                }
                for v in &combo {
                    pop.remove_instance(ty, v);
                }
            }
        }
        SearchResult::Exhausted
    }

    /// Prune an extent choice against constraints whose other participants
    /// were already decided (supertypes come earlier in `type_order`).
    fn extent_consistent(&self, ty: ObjectTypeId, chosen: &[Value], pop: &Population) -> bool {
        // Subset of every already-decided direct supertype, strictly when
        // proper semantics apply.
        for sup in self.idx.direct_supers(ty) {
            if self.decided_before(*sup, ty) {
                let sup_extent = pop.extent(*sup);
                if !chosen.iter().all(|v| sup_extent.contains(v)) {
                    return false;
                }
                if self.options.proper_subtypes
                    && !chosen.is_empty()
                    && chosen.len() == sup_extent.len()
                {
                    return false; // equal to supertype: not a strict subset
                }
            }
        }
        // Explicit exclusive-types constraints with decided members.
        for (_, c) in self.schema.constraints() {
            if let Constraint::ExclusiveTypes(e) = c {
                if !e.types.contains(&ty) {
                    continue;
                }
                for other in &e.types {
                    if *other != ty && self.decided_before(*other, ty) {
                        let other_extent = pop.extent(*other);
                        if chosen.iter().any(|v| other_extent.contains(v)) {
                            return false;
                        }
                    }
                }
            }
        }
        // Implicit exclusion against decided unrelated types.
        for other in &self.type_order {
            if *other == ty {
                break;
            }
            if !self.idx.may_overlap(ty, *other) {
                let other_extent = pop.extent(*other);
                if chosen.iter().any(|v| other_extent.contains(v)) {
                    return false;
                }
            }
        }
        true
    }

    fn decided_before(&self, a: ObjectTypeId, b: ObjectTypeId) -> bool {
        let pa = self.type_order.iter().position(|t| *t == a);
        let pb = self.type_order.iter().position(|t| *t == b);
        matches!((pa, pb), (Some(x), Some(y)) if x < y)
    }

    fn assign_facts(
        &self,
        facts: &[FactTypeId],
        position: usize,
        pop: &mut Population,
        budget: &mut u64,
    ) -> SearchResult {
        if *budget == 0 {
            return SearchResult::OutOfBudget;
        }
        *budget -= 1;
        if position == facts.len() {
            return self.verify(pop);
        }
        let fact = facts[position];
        let ft = self.schema.fact_type(fact);
        let e0: Vec<Value> = pop.extent(self.schema.player(ft.first())).iter().cloned().collect();
        let e1: Vec<Value> = pop.extent(self.schema.player(ft.second())).iter().cloned().collect();
        let pairs: Vec<(Value, Value)> =
            e0.iter().flat_map(|a| e1.iter().map(move |b| (a.clone(), b.clone()))).collect();
        let min_size = usize::from(self.target_facts.contains(&fact));
        let max_size = self.bounds.max_tuples.min(pairs.len());
        if pairs.len() < min_size {
            return SearchResult::Exhausted;
        }

        for size in min_size..=max_size {
            for combo in combinations(&pairs, size) {
                if !self.fact_consistent(fact, &combo) {
                    continue;
                }
                for (a, b) in &combo {
                    pop.add_fact(fact, a.clone(), b.clone());
                }
                match self.assign_facts(facts, position + 1, pop, budget) {
                    SearchResult::Exhausted => {}
                    other => return other,
                }
                for (a, b) in &combo {
                    pop.remove_fact(fact, a, b);
                }
            }
        }
        SearchResult::Exhausted
    }

    /// Per-fact constraints are fully decidable once the fact's table is
    /// chosen: uniqueness, frequency, and all ring kinds.
    fn fact_consistent(&self, fact: FactTypeId, tuples: &[(Value, Value)]) -> bool {
        for (_, c) in self.schema.constraints() {
            match c {
                Constraint::Uniqueness(u)
                    if self.schema.role(u.roles[0]).fact_type() == fact
                        && !counting_ok(self.schema, tuples, &u.roles, 1, Some(1)) =>
                {
                    return false;
                }
                Constraint::Frequency(f)
                    if self.schema.role(f.roles[0]).fact_type() == fact
                        && !counting_ok(self.schema, tuples, &f.roles, f.min, f.max) =>
                {
                    return false;
                }
                Constraint::Ring(r) if r.fact_type == fact => {
                    // Candidate tables are combinations of a sorted extent
                    // product, hence already in the order the evaluator needs.
                    let pairs: Vec<(&Value, &Value)> = tuples.iter().map(|(a, b)| (a, b)).collect();
                    if r.kinds.iter().any(|k| ring_witness(k, &pairs, |v| v).is_some()) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Authoritative final check through the population semantics, plus the
    /// target conditions.
    fn verify(&self, pop: &Population) -> SearchResult {
        for ty in &self.target_types {
            if !pop.type_populated(*ty) {
                return SearchResult::Exhausted;
            }
        }
        for fact in &self.target_facts {
            if pop.fact_count(*fact) == 0 {
                return SearchResult::Exhausted;
            }
        }
        if check_indexed(self.schema, self.idx, pop, self.options).is_empty() {
            SearchResult::Found(pop.clone())
        } else {
            SearchResult::Exhausted
        }
    }
}

enum SearchResult {
    Found(Population),
    Exhausted,
    OutOfBudget,
}

/// Topological order over the subtype DAG, supertypes first; cycle members
/// are appended in id order (their contradictions surface in verification).
fn topological_order(schema: &Schema, idx: &SchemaIndex) -> Vec<ObjectTypeId> {
    let n = schema.object_type_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Repeatedly place types whose direct supertypes are all placed.
    loop {
        let mut progressed = false;
        for (ty, _) in schema.object_types() {
            if placed[ty.index()] {
                continue;
            }
            let ready = idx.direct_supers(ty).iter().all(|s| placed[s.index()] || *s == ty);
            if ready {
                placed[ty.index()] = true;
                order.push(ty);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for (ty, _) in schema.object_types() {
        if !placed[ty.index()] {
            order.push(ty);
        }
    }
    order
}

/// Candidate instance pool per object type. Pools are shared within a
/// subtype component; a type whose (reflexive) supertype chain carries
/// value constraints is limited to values every such constraint admits.
fn candidate_pools(schema: &Schema, idx: &SchemaIndex, bounds: Bounds) -> Vec<Vec<Value>> {
    let n = schema.object_type_count();
    // Union-find-free component labelling via repeated relaxation.
    let mut component: Vec<usize> = (0..n).collect();
    loop {
        let mut changed = false;
        for link in schema.subtype_links() {
            let (a, b) = (link.sub.index(), link.sup.index());
            let m = component[a].min(component[b]);
            if component[a] != m {
                component[a] = m;
                changed = true;
            }
            if component[b] != m {
                component[b] = m;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Per component: fresh individuals + clamped value-constraint values of
    // every member.
    let mut component_values: BTreeMap<usize, Vec<Value>> = BTreeMap::new();
    for (ty, ot) in schema.object_types() {
        let comp = component[ty.index()];
        let entry = component_values.entry(comp).or_insert_with(|| {
            (0..bounds.fresh_per_component).map(|j| Value::str(format!("_u{comp}_{j}"))).collect()
        });
        if let Some(vc) = ot.value_constraint() {
            for v in vc.iter_values().take(bounds.max_extent + 1) {
                if !entry.contains(&v) {
                    entry.push(v);
                }
            }
        }
    }

    // Filter per type by the value constraints along the supertype chain.
    (0..n)
        .map(|i| {
            let ty = ObjectTypeId::from_raw(i as u32);
            let pool = &component_values[&component[i]];
            let vcs: Vec<_> = idx
                .supers_refl(ty)
                .into_iter()
                .filter_map(|s| schema.object_type(s).value_constraint().cloned())
                .collect();
            pool.iter().filter(|v| vcs.iter().all(|vc| vc.admits(v))).cloned().collect()
        })
        .collect()
}

/// All size-`k` combinations of `items`, preserving order.
fn combinations<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..k).collect();
    if k > items.len() {
        return out;
    }
    loop {
        out.push(indices.iter().map(|i| items[*i].clone()).collect());
        // Advance the combination counter.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        indices[i] += 1;
        for j in (i + 1)..k {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

fn counting_ok(
    schema: &Schema,
    tuples: &[(Value, Value)],
    roles: &[RoleId],
    min: u32,
    max: Option<u32>,
) -> bool {
    let positions: Vec<u8> = roles.iter().map(|r| schema.role(*r).position()).collect();
    let mut groups: BTreeMap<Vec<&Value>, u32> = BTreeMap::new();
    for (a, b) in tuples {
        let key: Vec<&Value> = positions.iter().map(|p| if *p == 0 { a } else { b }).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    groups.values().all(|count| *count >= min && max.is_none_or(|m| *count <= m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::{SchemaBuilder, ValueConstraint};

    #[test]
    fn combinations_enumerate_correct_counts() {
        let items = [1, 2, 3, 4];
        assert_eq!(combinations(&items, 0).len(), 1);
        assert_eq!(combinations(&items, 1).len(), 4);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert_eq!(combinations(&items, 5).len(), 0);
    }

    #[test]
    fn combinations_are_distinct() {
        let items = [1, 2, 3, 4, 5];
        let combos = combinations(&items, 3);
        let set: BTreeSet<Vec<i32>> = combos.iter().cloned().collect();
        assert_eq!(set.len(), combos.len());
    }

    #[test]
    fn topological_order_respects_subtyping() {
        let mut b = SchemaBuilder::new("s");
        let top = b.entity_type("Top").unwrap();
        let mid = b.entity_type("Mid").unwrap();
        let bot = b.entity_type("Bot").unwrap();
        b.subtype(bot, mid).unwrap();
        b.subtype(mid, top).unwrap();
        let s = b.finish();
        let idx = s.index();
        let order = topological_order(&s, &idx);
        let pos = |t: ObjectTypeId| order.iter().position(|x| *x == t).unwrap();
        assert!(pos(top) < pos(mid));
        assert!(pos(mid) < pos(bot));
    }

    #[test]
    fn topological_order_tolerates_cycles() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(a, c).unwrap();
        b.subtype(c, a).unwrap();
        let s = b.finish();
        let order = topological_order(&s, &s.index());
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn candidate_pools_respect_value_constraints() {
        let mut b = SchemaBuilder::new("s");
        let sup = b.value_type("Sup", Some(ValueConstraint::enumeration(["x", "y"]))).unwrap();
        let sub = b.entity_type("Sub").unwrap();
        b.subtype(sub, sup).unwrap();
        let free = b.entity_type("Free").unwrap();
        let s = b.finish();
        let pools = candidate_pools(&s, &s.index(), Bounds::default());
        // Sup and Sub only draw from the enumerated values.
        for ty in [sup, sub] {
            assert!(!pools[ty.index()].is_empty());
            assert!(pools[ty.index()]
                .iter()
                .all(|v| matches!(v, Value::Str(x) if x == "x" || x == "y")));
        }
        // Free gets fresh abstract values.
        assert_eq!(pools[free.index()].len(), Bounds::default().fresh_per_component);
    }

    #[test]
    fn shared_pool_within_component() {
        let mut b = SchemaBuilder::new("s");
        let sup = b.entity_type("Sup").unwrap();
        let sub = b.entity_type("Sub").unwrap();
        b.subtype(sub, sup).unwrap();
        let s = b.finish();
        let pools = candidate_pools(&s, &s.index(), Bounds::default());
        assert_eq!(pools[sup.index()], pools[sub.index()]);
    }

    #[test]
    fn counting_ok_checks_bounds() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let s = b.finish();
        let r0 = s.fact_type(f).first();
        let av = Value::str("a");
        let tuples = [(av.clone(), Value::str("x1")), (av.clone(), Value::str("x2"))];
        assert!(counting_ok(&s, &tuples, &[r0], 2, Some(2)));
        assert!(!counting_ok(&s, &tuples, &[r0], 1, Some(1)));
        assert!(!counting_ok(&s, &tuples, &[r0], 3, None));
    }
}
