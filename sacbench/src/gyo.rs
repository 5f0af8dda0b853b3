//! An independent GYO (Graham / Yu–Özsoyoğlu) reduction, used to check the
//! decider's witnesses without calling the program's own acyclicity test.
//!
//! The hypergraph has one edge per atom: the atom's variables (constants
//! and nulls do not connect atoms).  The reduction repeatedly deletes a
//! variable that occurs in a single edge and an edge contained in another
//! edge; the query is α-acyclic iff every edge disappears this way.

use sac::prelude::{ConjunctiveQuery, Term};
use std::collections::BTreeSet;

/// Whether the body of `query` is α-acyclic.
pub fn is_acyclic(query: &ConjunctiveQuery) -> bool {
    let edges = query
        .body
        .iter()
        .map(|atom| {
            atom.args
                .iter()
                .filter_map(|t| match t {
                    Term::Variable(v) => Some(v.as_str()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    reduces_to_nothing(edges)
}

/// Runs the reduction on explicit variable sets.
pub fn reduces_to_nothing(mut edges: Vec<BTreeSet<String>>) -> bool {
    loop {
        let before: usize = edges.iter().map(BTreeSet::len).sum::<usize>() + edges.len();
        // Ear variables: occurring in exactly one edge.
        let mut lonely = Vec::new();
        for (i, edge) in edges.iter().enumerate() {
            for v in edge {
                if edges
                    .iter()
                    .enumerate()
                    .all(|(j, e)| j == i || !e.contains(v))
                {
                    lonely.push((i, v.clone()));
                }
            }
        }
        for (i, v) in lonely {
            edges[i].remove(&v);
        }
        // Edges contained in another edge (or empty) go.
        let mut i = 0;
        while i < edges.len() {
            let covered = edges[i].is_empty()
                || edges
                    .iter()
                    .enumerate()
                    .any(|(j, e)| j != i && edges[i].is_subset(e));
            if covered {
                edges.remove(i);
            } else {
                i += 1;
            }
        }
        if edges.is_empty() {
            return true;
        }
        let after: usize = edges.iter().map(BTreeSet::len).sum::<usize>() + edges.len();
        if after == before {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        text.parse().unwrap()
    }

    #[test]
    fn known_acyclic_queries_reduce() {
        assert!(is_acyclic(&q("q() :- E(X, Y), E(Y, Z), E(Z, W).")));
        assert!(is_acyclic(&q("q() :- E(C, A), E(C, B), E(C, D).")));
        // Example 4: acyclic before the key chase.
        assert!(is_acyclic(&q(
            "q(X) :- R(X, Y), S(X, Y, Z), S(X, Z, W), R(X, W)."
        )));
        assert!(is_acyclic(&q("q() :- E(W, W).")));
        assert!(is_acyclic(&q("q(X, Y) :- Interest(X, Z), Class(Y, Z).")));
        // Two atoms over the same pair form one hyperedge class: acyclic.
        assert!(is_acyclic(&q("q() :- E(X, Y), E(Y, X).")));
        // A triangle covered by a ternary atom is acyclic.
        assert!(is_acyclic(&q(
            "q() :- E(X, Y), E(Y, Z), E(Z, X), T(X, Y, Z)."
        )));
        // Constants do not connect atoms.
        assert!(is_acyclic(&q("q() :- E(X, a), E(a, Y), E(Y, X).")));
    }

    #[test]
    fn known_cyclic_queries_do_not_reduce() {
        assert!(!is_acyclic(&q("q() :- E(X, Y), E(Y, Z), E(Z, X).")));
        assert!(!is_acyclic(&q(
            "q() :- E(A, B), E(B, C), E(C, D), E(D, A)."
        )));
        assert!(!is_acyclic(&q(
            "q(X, Y) :- Interest(X, Z), Class(Y, Z), Owns(X, Y)."
        )));
        assert!(!is_acyclic(&q(
            "q() :- E(X, Y), E(Y, Z), E(Z, X), E(W, W)."
        )));
    }

    #[test]
    fn explicit_edge_sets() {
        let set = |vs: &[&str]| vs.iter().map(|v| v.to_string()).collect::<BTreeSet<_>>();
        assert!(reduces_to_nothing(vec![]));
        assert!(reduces_to_nothing(vec![set(&["a", "b", "c"])]));
        assert!(!reduces_to_nothing(vec![
            set(&["a", "b"]),
            set(&["b", "c"]),
            set(&["c", "a"])
        ]));
    }
}
