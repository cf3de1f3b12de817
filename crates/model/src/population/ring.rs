//! The one evaluator of the six ring kinds over a concrete relation.
//!
//! The per-violation checker runs it over `(&Value, &Value)` fact tables,
//! the compiled bulk checker over interned `u32` id columns and the
//! bounded finder over candidate tables. Because all three feed it the
//! same sorted relation (id order is value order), they report the same
//! witness for the same violation.

use crate::RingKind;
use std::collections::BTreeMap;
use std::fmt::Display;

/// The first witness that `tuples` violates ring kind `kind`, rendered
/// with `show`; `None` when the kind holds.
///
/// `tuples` must be sorted ascending and free of duplicates — a fact
/// table in set order. Witnesses are found in that order: the first
/// offending tuple, and for acyclicity the first cycle a depth-first
/// search from the smallest source reaches. The search is iterative, so
/// arbitrarily long chains cannot overflow the stack.
pub fn ring_witness<T: Ord + Copy, D: Display>(
    kind: RingKind,
    tuples: &[(T, T)],
    show: impl Fn(T) -> D,
) -> Option<String> {
    debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]), "tuples must be sorted and distinct");
    let holds = |x: T, y: T| tuples.binary_search(&(x, y)).is_ok();
    match kind {
        RingKind::Irreflexive => tuples
            .iter()
            .find(|(x, y)| x == y)
            .map(|&(x, _)| format!("self-pair ({}, {})", show(x), show(x))),
        RingKind::Antisymmetric => {
            tuples.iter().find(|&&(x, y)| x != y && holds(y, x)).map(|&(x, y)| {
                let (x, y) = (show(x), show(y));
                format!("both ({x}, {y}) and ({y}, {x}) present")
            })
        }
        RingKind::Asymmetric => tuples.iter().find(|&&(x, y)| holds(y, x)).map(|&(x, y)| {
            let (x, y) = (show(x), show(y));
            format!("both ({x}, {y}) and ({y}, {x}) present")
        }),
        RingKind::Symmetric => tuples.iter().find(|&&(x, y)| !holds(y, x)).map(|&(x, y)| {
            let (x, y) = (show(x), show(y));
            format!("({x}, {y}) present without ({y}, {x})")
        }),
        RingKind::Intransitive => tuples.iter().find_map(|&(x, y)| {
            // All (y, z) successors form one contiguous run of the sorted
            // slice — the same matches in the same order, without O(n²).
            successors(tuples, y).iter().find(|&&(_, z)| holds(x, z)).map(|&(_, z)| {
                let (x, y, z) = (show(x), show(y), show(z));
                format!("({x}, {y}), ({y}, {z}) and ({x}, {z}) present")
            })
        }),
        RingKind::Acyclic => first_cycle(tuples).map(|cycle| {
            let names: Vec<String> = cycle.into_iter().map(|n| show(n).to_string()).collect();
            format!("cycle through {}", names.join(" -> "))
        }),
    }
}

/// The tuples of sorted `tuples` whose first component is `node`.
fn successors<T: Ord + Copy>(tuples: &[(T, T)], node: T) -> &[(T, T)] {
    let lo = tuples.partition_point(|&(a, _)| a < node);
    let hi = tuples.partition_point(|&(a, _)| a <= node);
    &tuples[lo..hi]
}

/// The first directed cycle of the relation, as its node path closed by
/// a repeat of its first node. Roots are tried in ascending order and
/// successors are followed in ascending order.
fn first_cycle<T: Ord + Copy>(tuples: &[(T, T)]) -> Option<Vec<T>> {
    // Absent = unvisited, `false` = on the current path, `true` = finished.
    let mut finished: BTreeMap<T, bool> = BTreeMap::new();
    for &(root, _) in tuples {
        if finished.contains_key(&root) {
            continue;
        }
        finished.insert(root, false);
        // Each frame: a node and the successors it has still to follow.
        let mut path: Vec<(T, &[(T, T)])> = vec![(root, successors(tuples, root))];
        while let Some((node, rest)) = path.last_mut() {
            let Some((&(_, next), tail)) = rest.split_first() else {
                finished.insert(*node, true);
                path.pop();
                continue;
            };
            *rest = tail;
            match finished.get(&next) {
                Some(false) => {
                    let start = path.iter().position(|(n, _)| *n == next).unwrap_or(0);
                    let mut cycle: Vec<T> = path[start..].iter().map(|(n, _)| *n).collect();
                    cycle.push(next);
                    return Some(cycle);
                }
                Some(true) => {}
                None => {
                    finished.insert(next, false);
                    path.push((next, successors(tuples, next)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RingKinds, Value};

    /// Whether `tuples` satisfies every kind in `kinds`.
    fn holds_all(kinds: RingKinds, tuples: &[(Value, Value)]) -> bool {
        let tuples: Vec<(&Value, &Value)> = tuples.iter().map(|(a, b)| (a, b)).collect();
        kinds.iter().all(|kind| ring_witness(kind, &tuples, |v| v).is_none())
    }

    #[test]
    fn ring_witness_agrees_with_examples() {
        let a = Value::str("a");
        let b = Value::str("b");
        let loop_rel = [(a.clone(), a.clone())];
        assert!(!holds_all(RingKinds::only(RingKind::Irreflexive), &loop_rel));
        assert!(holds_all(RingKinds::only(RingKind::Symmetric), &loop_rel));
        let edge = [(a.clone(), b.clone())];
        assert!(holds_all(RingKinds::only(RingKind::Asymmetric), &edge));
        assert!(!holds_all(RingKinds::only(RingKind::Symmetric), &edge));
        let two_cycle = [(a.clone(), b.clone()), (b.clone(), a.clone())];
        assert!(!holds_all(RingKinds::only(RingKind::Acyclic), &two_cycle));
        assert!(holds_all(RingKinds::only(RingKind::Symmetric), &two_cycle));
    }

    #[test]
    fn cycle_witness_starts_at_the_smallest_root() {
        let tuples = [(1, 2), (2, 3), (3, 1), (4, 4)];
        let witness = ring_witness(RingKind::Acyclic, &tuples, |n| n);
        assert_eq!(witness.as_deref(), Some("cycle through 1 -> 2 -> 3 -> 1"));
        assert_eq!(ring_witness(RingKind::Acyclic, &[(1, 2), (1, 3), (2, 3)], |n| n), None);
    }

    #[test]
    fn intransitive_witness_names_the_shortcut() {
        let tuples = [(1, 2), (1, 3), (2, 3)];
        let witness = ring_witness(RingKind::Intransitive, &tuples, |n| n);
        assert_eq!(witness.as_deref(), Some("(1, 2), (2, 3) and (1, 3) present"));
    }
}
