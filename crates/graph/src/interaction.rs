//! The bipartite user–item interaction graph.

use std::collections::HashSet;

use graphaug_sparse::{bipartite_adjacency, sym_norm, Csr};

/// A user id in `0..n_users`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// An item id in `0..n_items`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

/// A violated [`InteractionGraph`] structural invariant, reported by
/// [`InteractionGraph::validate`].
///
/// The constructor establishes these invariants, so a violation means the
/// graph bytes were produced elsewhere (a deserialized checkpoint, a future
/// zero-copy loader) or memory was corrupted — exactly the situations a
/// fault-tolerant runtime wants to catch before training on garbage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphInvariantError {
    /// An edge references a user id `≥ n_users`.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// The graph's user count.
        n_users: usize,
    },
    /// An edge references an item id `≥ n_items`.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The graph's item count.
        n_items: usize,
    },
    /// The edge list is not strictly sorted `(user, item)` ascending.
    UnsortedEdges {
        /// Index of the first out-of-order edge.
        index: usize,
    },
    /// The same `(user, item)` pair appears twice.
    DuplicateEdge {
        /// The duplicated edge's user.
        user: u32,
        /// The duplicated edge's item.
        item: u32,
    },
    /// A CSR row disagrees with the edge list (unsorted columns, wrong
    /// degree, or differing items).
    CsrRowMismatch {
        /// The user whose CSR row is inconsistent.
        user: u32,
    },
    /// Total CSR entries differ from the edge count.
    CountMismatch {
        /// Edges in the edge list.
        edges: usize,
        /// Entries across all CSR rows.
        csr: usize,
    },
}

impl std::fmt::Display for GraphInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphInvariantError::UserOutOfRange { user, n_users } => {
                write!(f, "user id {user} out of range (n_users = {n_users})")
            }
            GraphInvariantError::ItemOutOfRange { item, n_items } => {
                write!(f, "item id {item} out of range (n_items = {n_items})")
            }
            GraphInvariantError::UnsortedEdges { index } => {
                write!(f, "edge list unsorted at index {index}")
            }
            GraphInvariantError::DuplicateEdge { user, item } => {
                write!(f, "duplicate edge ({user}, {item})")
            }
            GraphInvariantError::CsrRowMismatch { user } => {
                write!(f, "CSR row for user {user} disagrees with the edge list")
            }
            GraphInvariantError::CountMismatch { edges, csr } => {
                write!(f, "edge count {edges} != CSR entry count {csr}")
            }
        }
    }
}

impl std::error::Error for GraphInvariantError {}

/// An observed implicit-feedback interaction set between users and items.
///
/// Edges are stored deduplicated and sorted `(user, item)`. All downstream
/// structures — bipartite adjacency, per-user item lists, degree buckets —
/// derive from this type.
#[derive(Clone, Debug)]
pub struct InteractionGraph {
    n_users: usize,
    n_items: usize,
    edges: Vec<(u32, u32)>,
    /// CSR of users × items (one row per user).
    user_items: Csr,
}

impl InteractionGraph {
    /// Builds a graph from raw interaction pairs; duplicates are removed.
    pub fn new(n_users: usize, n_items: usize, mut edges: Vec<(u32, u32)>) -> Self {
        for &(u, v) in &edges {
            assert!(
                (u as usize) < n_users && (v as usize) < n_items,
                "edge ({u},{v}) out of bounds"
            );
        }
        edges.sort_unstable();
        edges.dedup();
        let user_items = Csr::from_coo(
            n_users,
            n_items,
            edges.iter().map(|&(u, v)| (u, v, 1.0)).collect(),
        );
        InteractionGraph {
            n_users,
            n_items,
            edges,
            user_items,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total node count of the bipartite graph (`I + J`).
    pub fn n_nodes(&self) -> usize {
        self.n_users + self.n_items
    }

    /// Number of distinct interactions.
    pub fn n_interactions(&self) -> usize {
        self.edges.len()
    }

    /// Interaction density `|E| / (I · J)`.
    pub fn density(&self) -> f64 {
        self.edges.len() as f64 / (self.n_users as f64 * self.n_items as f64)
    }

    /// The deduplicated, sorted `(user, item)` edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Items interacted by `u` (sorted).
    pub fn items_of(&self, u: usize) -> &[u32] {
        self.user_items.row(u).0
    }

    /// True when `(u, v)` is an observed interaction.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.items_of(u as usize).binary_search(&v).is_ok()
    }

    /// Per-user interaction counts.
    pub fn user_degrees(&self) -> Vec<usize> {
        self.user_items.row_degrees()
    }

    /// Per-item interaction counts.
    pub fn item_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n_items];
        for &(_, v) in &self.edges {
            deg[v as usize] += 1;
        }
        deg
    }

    /// The symmetric `(I+J) × (I+J)` bipartite adjacency (unnormalized).
    pub fn adjacency(&self) -> Csr {
        bipartite_adjacency(self.n_users, self.n_items, &self.edges)
    }

    /// `D^{-1/2} A D^{-1/2}` over the bipartite adjacency, without
    /// self-loops — the Ã every GNN encoder propagates over (paper
    /// Sec. III-C, LightGCN-style).
    pub fn normalized_adjacency_plain(&self) -> Csr {
        sym_norm(&self.adjacency(), false)
    }

    /// Checks every structural invariant the rest of the workspace assumes:
    /// ids in range, a strictly sorted deduplicated edge list, and CSR rows
    /// that agree with the edge list in both membership and degree. Dataset
    /// presets and the training runtime call this at startup so a malformed
    /// graph fails loudly before any compute is spent on it.
    pub fn validate(&self) -> Result<(), GraphInvariantError> {
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if (u as usize) >= self.n_users {
                return Err(GraphInvariantError::UserOutOfRange {
                    user: u,
                    n_users: self.n_users,
                });
            }
            if (v as usize) >= self.n_items {
                return Err(GraphInvariantError::ItemOutOfRange {
                    item: v,
                    n_items: self.n_items,
                });
            }
            if i > 0 {
                let prev = self.edges[i - 1];
                if prev == (u, v) {
                    return Err(GraphInvariantError::DuplicateEdge { user: u, item: v });
                }
                if prev > (u, v) {
                    return Err(GraphInvariantError::UnsortedEdges { index: i });
                }
            }
        }
        // CSR rows must mirror the edge list exactly: same per-user degree,
        // same (sorted) items, same total count.
        let mut cursor = 0usize;
        let mut csr_total = 0usize;
        for u in 0..self.n_users {
            let row = self.user_items.row(u).0;
            csr_total += row.len();
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(GraphInvariantError::CsrRowMismatch { user: u as u32 });
            }
            let end = cursor
                + self.edges[cursor..]
                    .iter()
                    .take_while(|&&(eu, _)| eu as usize == u)
                    .count();
            let from_edges: Vec<u32> = self.edges[cursor..end].iter().map(|&(_, v)| v).collect();
            if row != from_edges.as_slice() {
                return Err(GraphInvariantError::CsrRowMismatch { user: u as u32 });
            }
            cursor = end;
        }
        if csr_total != self.edges.len() || cursor != self.edges.len() {
            return Err(GraphInvariantError::CountMismatch {
                edges: self.edges.len(),
                csr: csr_total,
            });
        }
        Ok(())
    }

    /// Returns a new graph with additional edges merged in (duplicates
    /// against existing interactions are dropped).
    pub fn with_extra_edges(&self, extra: &[(u32, u32)]) -> InteractionGraph {
        let mut edges = self.edges.clone();
        let existing: HashSet<(u32, u32)> = edges.iter().copied().collect();
        for &e in extra {
            if !existing.contains(&e) {
                edges.push(e);
            }
        }
        InteractionGraph::new(self.n_users, self.n_items, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> InteractionGraph {
        InteractionGraph::new(3, 4, vec![(0, 1), (0, 3), (1, 0), (2, 2), (2, 3), (0, 1)])
    }

    #[test]
    fn dedups_and_sorts_edges() {
        let g = g();
        assert_eq!(g.n_interactions(), 5);
        assert_eq!(g.edges()[0], (0, 1));
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn degrees_match_edges() {
        let g = g();
        assert_eq!(g.user_degrees(), vec![2, 1, 2]);
        assert_eq!(g.item_degrees(), vec![1, 1, 1, 2]);
    }

    #[test]
    fn density_formula() {
        let g = g();
        assert!((g.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_shapes_and_symmetry() {
        let g = g();
        let adj = g.adjacency();
        assert_eq!(adj.n_rows(), 7);
        assert_eq!(adj.nnz(), 10);
        let norm = g.normalized_adjacency_plain();
        norm.check_invariants().unwrap();
        assert_eq!(norm.nnz(), 10);
        // No self-loops.
        for i in 0..7 {
            let (cols, _) = norm.row(i);
            assert!(!cols.contains(&(i as u32)));
        }
    }

    #[test]
    fn extend_drops_duplicate_edges() {
        let g = g();
        let extended = g.with_extra_edges(&[(1, 1), (0, 1)]);
        assert_eq!(extended.n_interactions(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_edges() {
        InteractionGraph::new(1, 1, vec![(0, 1)]);
    }

    #[test]
    fn validate_accepts_constructor_built_graphs() {
        g().validate().unwrap();
    }

    #[test]
    fn validate_catches_corrupted_edge_lists() {
        // The constructor upholds the invariants, so corrupt the private
        // fields directly — emulating a graph deserialized from bad bytes.
        let mut bad = g();
        bad.edges[0].1 = 99; // item out of range, CSR now also disagrees
        assert_eq!(
            bad.validate(),
            Err(GraphInvariantError::ItemOutOfRange {
                item: 99,
                n_items: 4
            })
        );

        let mut dup = g();
        dup.edges[1] = dup.edges[0];
        assert!(matches!(
            dup.validate(),
            Err(GraphInvariantError::DuplicateEdge { .. })
        ));

        let mut unsorted = g();
        unsorted.edges.swap(0, 4);
        assert!(matches!(
            unsorted.validate(),
            Err(GraphInvariantError::UnsortedEdges { .. })
        ));

        let mut missing = g();
        missing.edges.pop(); // CSR still holds the removed edge
        assert!(matches!(
            missing.validate(),
            Err(GraphInvariantError::CsrRowMismatch { .. })
        ));
    }
}
