//! The original clone-per-branch tableau, retained as a reference engine.
//!
//! This is the seed implementation that [`crate::tableau`] replaced: node
//! labels are `BTreeSet<Concept>` (deep `Ord` comparisons), every
//! non-deterministic choice (`⊔`, the `≤`-merge pair) deep-clones the
//! whole completion forest, rules are found by rescanning every node per
//! iteration, and sub-role queries re-derive the hierarchy closure per
//! call. It is kept — not exported from the crate root — for two jobs:
//!
//! * the **differential suite** (`tests/dl_agreement.rs`) checks the
//!   optimized engine's verdicts against it on generated schemas;
//! * the **`tableau_hotpath` bench** and `experiments tableau` measure the
//!   speedup of the trail-based engine against it, recorded in
//!   `BENCH_tableau.json`.
//!
//! Verdict semantics ([`DlOutcome`], budget as rule applications) are
//! identical to the optimized engine; only cost differs.

use crate::concept::{Concept, RoleExpr};
use crate::tableau::DlOutcome;
use crate::tbox::TBox;
use std::collections::BTreeSet;

/// The internalized TBox concept `⊓ (¬Cᵢ ⊔ Dᵢ)`, which must hold at every
/// node of the completion forest. Built per call: the root label deep-clones
/// it anyway.
fn internalized(tbox: &TBox) -> Concept {
    Concept::and(
        tbox.gcis().iter().map(|(c, d)| Concept::implies(c.clone(), d.clone())).collect::<Vec<_>>(),
    )
}

/// Whether `sub ⊑ sup` follows from the TBox: the standard reduction to
/// unsatisfiability of `sub ⊓ ¬sup`.
///
/// Returns `Some(true/false)` on a definitive answer and `None` when the
/// budget ran out.
pub fn subsumes(tbox: &TBox, sup: &Concept, sub: &Concept, budget: u64) -> Option<bool> {
    let query = Concept::and([sub.clone(), Concept::not(sup.clone())]);
    match satisfiable(tbox, &query, budget) {
        DlOutcome::Unsat => Some(true),
        DlOutcome::Sat => Some(false),
        DlOutcome::ResourceLimit => None,
    }
}

/// Check satisfiability of `query` with respect to `tbox`, spending at most
/// `budget` rule applications.
pub fn satisfiable(tbox: &TBox, query: &Concept, budget: u64) -> DlOutcome {
    let internal = internalized(tbox);
    let mut root_label = BTreeSet::new();
    add_concept(&mut root_label, query.clone());
    add_concept(&mut root_label, internal.clone());
    let graph = Forest {
        nodes: vec![Node {
            alive: true,
            label: root_label,
            parent: None,
            edge: BTreeSet::new(),
            children: Vec::new(),
            distinct: BTreeSet::new(),
        }],
    };
    let mut budget = budget;
    expand(tbox, &internal, graph, &mut budget)
}

#[derive(Clone, Debug)]
struct Node {
    alive: bool,
    label: BTreeSet<Concept>,
    parent: Option<usize>,
    /// Role labels of the edge from `parent` to this node.
    edge: BTreeSet<RoleExpr>,
    children: Vec<usize>,
    /// Nodes asserted pairwise-distinct from this one.
    distinct: BTreeSet<usize>,
}

#[derive(Clone, Debug)]
struct Forest {
    nodes: Vec<Node>,
}

/// Flatten conjunctions eagerly when inserting (the ⊓-rule, fused).
fn add_concept(label: &mut BTreeSet<Concept>, c: Concept) {
    match c {
        Concept::Top => {}
        Concept::And(cs) => {
            for c in cs {
                add_concept(label, c);
            }
        }
        other => {
            label.insert(other);
        }
    }
}

impl Forest {
    fn alive(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|i| self.nodes[*i].alive)
    }

    /// R-neighbours of `x`: children via a sub-role edge, plus the parent
    /// when the inverted edge label is a sub-role of `R`.
    fn neighbors(&self, tbox: &TBox, x: usize, role: RoleExpr) -> Vec<usize> {
        let mut out = Vec::new();
        for &child in &self.nodes[x].children {
            if !self.nodes[child].alive {
                continue;
            }
            if self.nodes[child].edge.iter().any(|s| tbox.is_subrole(*s, role)) {
                out.push(child);
            }
        }
        if let Some(parent) = self.nodes[x].parent {
            if self.nodes[parent].alive
                && self.nodes[x].edge.iter().any(|s| tbox.is_subrole(s.inverse(), role))
            {
                out.push(parent);
            }
        }
        out
    }

    fn has_clash(&self, tbox: &TBox) -> bool {
        for i in self.alive() {
            let node = &self.nodes[i];
            if node.label.contains(&Concept::Bottom) {
                return true;
            }
            for c in &node.label {
                if let Concept::Atomic(a) = c {
                    if node.label.contains(&Concept::NotAtomic(*a)) {
                        return true;
                    }
                }
            }
            if !node.edge.is_empty() && tbox.edge_violates_disjointness(&node.edge) {
                return true;
            }
            // ≤n R with > n pairwise-distinct R-neighbours.
            for c in &node.label {
                if let Concept::AtMost(n, r) = c {
                    let neighbors = self.neighbors(tbox, i, *r);
                    if neighbors.len() > *n as usize && all_pairwise_distinct(self, &neighbors) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Ancestor chain of `x`, excluding `x`.
    fn ancestors(&self, x: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[x].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// Pairwise blocking: `x` is blocked when some ancestor pair mirrors
    /// `x` and its parent exactly.
    fn blocked(&self, x: usize) -> bool {
        let Some(xp) = self.nodes[x].parent else { return false };
        for y in self.ancestors(x) {
            let Some(yp) = self.nodes[y].parent else { continue };
            if self.nodes[x].label == self.nodes[y].label
                && self.nodes[xp].label == self.nodes[yp].label
                && self.nodes[x].edge == self.nodes[y].edge
            {
                return true;
            }
            // A node below a blocked ancestor is indirectly blocked.
            if self.blocked_directly(y) {
                return true;
            }
        }
        false
    }

    fn blocked_directly(&self, x: usize) -> bool {
        let Some(xp) = self.nodes[x].parent else { return false };
        for y in self.ancestors(x) {
            let Some(yp) = self.nodes[y].parent else { continue };
            if self.nodes[x].label == self.nodes[y].label
                && self.nodes[xp].label == self.nodes[yp].label
                && self.nodes[x].edge == self.nodes[y].edge
            {
                return true;
            }
        }
        false
    }

    fn add_child(
        &mut self,
        parent: usize,
        edge: BTreeSet<RoleExpr>,
        label: BTreeSet<Concept>,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            alive: true,
            label,
            parent: Some(parent),
            edge,
            children: Vec::new(),
            distinct: BTreeSet::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Merge node `from` into node `to`; both must be R-neighbours of the
    /// same node `via`, with `from` a child of `via`.
    fn merge(&mut self, via: usize, from: usize, to: usize) {
        debug_assert_eq!(self.nodes[from].parent, Some(via));
        let from_node = std::mem::replace(
            &mut self.nodes[from],
            Node {
                alive: false,
                label: BTreeSet::new(),
                parent: None,
                edge: BTreeSet::new(),
                children: Vec::new(),
                distinct: BTreeSet::new(),
            },
        );
        // Labels and distinctness accumulate on the survivor.
        let label = from_node.label;
        for c in label {
            self.nodes[to].label.insert(c);
        }
        let distinct = from_node.distinct;
        self.nodes[to].distinct.extend(distinct.iter().copied());
        for d in distinct {
            if self.nodes[d].alive {
                self.nodes[d].distinct.insert(to);
            }
        }
        // Edges: `from` was a child of `via`.
        if self.nodes[to].parent == Some(via) {
            // Sibling merge: fold edge labels.
            let edge = from_node.edge;
            for e in edge {
                self.nodes[to].edge.insert(e);
            }
        } else if Some(to) == self.nodes[via].parent {
            // Child-into-parent merge: `via —S→ from` becomes
            // `to —S⁻→ via` folded into via's existing up-edge.
            let inverted: Vec<RoleExpr> = from_node.edge.iter().map(|s| s.inverse()).collect();
            for e in inverted {
                self.nodes[via].edge.insert(e);
            }
        }
        // Reparent from's children under the survivor.
        let children = from_node.children;
        for child in &children {
            self.nodes[*child].parent = Some(to);
        }
        self.nodes[to].children.extend(children);
        self.nodes[via].children.retain(|c| *c != from);
    }
}

fn all_pairwise_distinct(forest: &Forest, nodes: &[usize]) -> bool {
    for (i, &a) in nodes.iter().enumerate() {
        for &b in nodes.iter().skip(i + 1) {
            if !forest.nodes[a].distinct.contains(&b) {
                return false;
            }
        }
    }
    true
}

fn expand(tbox: &TBox, internal: &Concept, mut forest: Forest, budget: &mut u64) -> DlOutcome {
    loop {
        if *budget == 0 {
            return DlOutcome::ResourceLimit;
        }
        *budget -= 1;

        if forest.has_clash(tbox) {
            return DlOutcome::Unsat;
        }

        // Deterministic ∀-rule to fixpoint.
        let mut changed = false;
        let alive: Vec<usize> = forest.alive().collect();
        for x in alive {
            let foralls: Vec<(RoleExpr, Concept)> = forest.nodes[x]
                .label
                .iter()
                .filter_map(|c| match c {
                    Concept::ForAll(r, body) => Some((*r, (**body).clone())),
                    _ => None,
                })
                .collect();
            for (r, body) in foralls {
                for y in forest.neighbors(tbox, x, r) {
                    if !label_subsumes(&forest.nodes[y].label, &body) {
                        add_concept(&mut forest.nodes[y].label, body.clone());
                        changed = true;
                    }
                }
            }
        }
        if changed {
            continue;
        }

        // ⊔-rule: first node with an unresolved disjunction.
        let alive: Vec<usize> = forest.alive().collect();
        for &x in &alive {
            let disjunction = forest.nodes[x].label.iter().find_map(|c| match c {
                Concept::Or(cs)
                    if !cs.iter().any(|d| label_subsumes(&forest.nodes[x].label, d)) =>
                {
                    Some(cs.clone())
                }
                _ => None,
            });
            if let Some(cs) = disjunction {
                let mut limited = false;
                for d in cs {
                    let mut branch = forest.clone();
                    add_concept(&mut branch.nodes[x].label, d);
                    match expand(tbox, internal, branch, budget) {
                        DlOutcome::Sat => return DlOutcome::Sat,
                        DlOutcome::Unsat => {}
                        DlOutcome::ResourceLimit => limited = true,
                    }
                }
                return if limited { DlOutcome::ResourceLimit } else { DlOutcome::Unsat };
            }
        }

        // ≤-rule: merge surplus neighbours.
        for &x in &alive {
            let at_mosts: Vec<(u32, RoleExpr)> = forest.nodes[x]
                .label
                .iter()
                .filter_map(|c| match c {
                    Concept::AtMost(n, r) => Some((*n, *r)),
                    _ => None,
                })
                .collect();
            for (n, r) in at_mosts {
                let neighbors = forest.neighbors(tbox, x, r);
                if neighbors.len() <= n as usize {
                    continue;
                }
                // Try every mergeable pair; merge the child of the pair.
                // At least one pair is mergeable here: were all pairs
                // asserted distinct, the clash check above would have
                // fired.
                let mut limited = false;
                let mut tried = false;
                for (i, &a) in neighbors.iter().enumerate() {
                    for &b in neighbors.iter().skip(i + 1) {
                        if forest.nodes[a].distinct.contains(&b) {
                            continue;
                        }
                        // At most one of a, b is x's parent; merge the
                        // child into the other node.
                        let (from, to) =
                            if forest.nodes[x].parent == Some(a) { (b, a) } else { (a, b) };
                        tried = true;
                        let mut branch = forest.clone();
                        branch.merge(x, from, to);
                        match expand(tbox, internal, branch, budget) {
                            DlOutcome::Sat => return DlOutcome::Sat,
                            DlOutcome::Unsat => {}
                            DlOutcome::ResourceLimit => limited = true,
                        }
                    }
                }
                if !tried {
                    // Defensive: all pairs distinct yet uncaught above.
                    return DlOutcome::Unsat;
                }
                return if limited { DlOutcome::ResourceLimit } else { DlOutcome::Unsat };
            }
        }

        // Generating rules on unblocked nodes.
        let mut generated = false;
        for &x in &alive {
            if !forest.nodes[x].alive || forest.blocked(x) {
                continue;
            }
            let label = forest.nodes[x].label.clone();
            for c in &label {
                match c {
                    Concept::Exists(r, body) => {
                        let satisfied = forest
                            .neighbors(tbox, x, *r)
                            .into_iter()
                            .any(|y| label_subsumes(&forest.nodes[y].label, body));
                        if !satisfied {
                            let mut child_label = BTreeSet::new();
                            add_concept(&mut child_label, (**body).clone());
                            add_concept(&mut child_label, internal.clone());
                            forest.add_child(x, BTreeSet::from([*r]), child_label);
                            generated = true;
                        }
                    }
                    Concept::AtLeast(n, r) => {
                        let neighbors = forest.neighbors(tbox, x, *r);
                        let enough = neighbors.len() >= *n as usize
                            && has_n_pairwise_distinct(&forest, &neighbors, *n as usize);
                        if !enough {
                            let mut fresh = Vec::new();
                            for _ in 0..*n {
                                let mut child_label = BTreeSet::new();
                                add_concept(&mut child_label, internal.clone());
                                let id = forest.add_child(x, BTreeSet::from([*r]), child_label);
                                fresh.push(id);
                            }
                            for (i, &a) in fresh.iter().enumerate() {
                                for &b in fresh.iter().skip(i + 1) {
                                    forest.nodes[a].distinct.insert(b);
                                    forest.nodes[b].distinct.insert(a);
                                }
                            }
                            generated = true;
                        }
                    }
                    _ => {}
                }
                if generated {
                    break;
                }
            }
            if generated {
                break;
            }
        }
        if generated {
            continue;
        }

        // No rule applies: complete and clash-free.
        return DlOutcome::Sat;
    }
}

/// Whether `label` already makes `c` true syntactically (membership, with
/// conjunctions split).
fn label_subsumes(label: &BTreeSet<Concept>, c: &Concept) -> bool {
    match c {
        Concept::Top => true,
        Concept::And(cs) => cs.iter().all(|d| label_subsumes(label, d)),
        other => label.contains(other),
    }
}

/// Whether `nodes` contains `n` mutually-distinct members.
fn has_n_pairwise_distinct(forest: &Forest, nodes: &[usize], n: usize) -> bool {
    if n <= 1 {
        return !nodes.is_empty();
    }
    // Greedy clique search over the distinctness graph; n is tiny (≤ a few)
    // in ORM-generated workloads, so exhaustive search over subsets is fine.
    subsets_of_size(nodes, n).into_iter().any(|combo| {
        combo
            .iter()
            .enumerate()
            .all(|(i, &a)| combo.iter().skip(i + 1).all(|&b| forest.nodes[a].distinct.contains(&b)))
    })
}

fn subsets_of_size(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k > items.len() {
        return Vec::new();
    }
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in subsets_of_size(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::internalized;
    use crate::concept::Concept;
    use crate::tbox::TBox;

    #[test]
    fn internalization_shape() {
        let mut t = TBox::new();
        let a = t.atom("A");
        let b = t.atom("B");
        t.gci(Concept::Atomic(a), Concept::Atomic(b));
        let internal = internalized(&t);
        assert_eq!(internal, Concept::Or(vec![Concept::NotAtomic(a), Concept::Atomic(b)]));
        assert_eq!(internalized(&TBox::new()), Concept::Top);
    }

    /// The shared scenario suite, run through the reference engine (the
    /// trail-based engine runs the identical list in `tableau::tests`).
    #[test]
    fn classic_engine_matches_expected_verdicts() {
        for case in crate::test_scenarios::all() {
            assert_eq!(
                super::satisfiable(&case.tbox, &case.query, case.budget),
                case.expected,
                "classic engine wrong on: {}",
                case.name
            );
        }
    }
}
