use dkc_graph::NodeId;

/// Maximum supported clique size. The paper evaluates `k` in `3..=6`; 16
/// leaves generous headroom while keeping [`Clique`] a small, copyable,
/// allocation-free value (72 bytes).
pub const MAX_K: usize = 16;

/// A clique as an inline sorted array of node ids.
///
/// Storing nodes inline (instead of a `Vec`) keeps hot solver loops free of
/// heap traffic: cliques are pushed onto binary heaps, hashed, and compared
/// millions of times. Nodes are kept sorted ascending, and unused slots are
/// padded with `NodeId::MAX` so that derived `Eq`/`Ord`/`Hash` are
/// well-defined.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clique {
    len: u8,
    nodes: [NodeId; MAX_K],
}

impl Clique {
    /// Builds a clique from a node slice. Nodes are sorted internally.
    ///
    /// # Panics
    /// Panics if `nodes.len() > MAX_K` or if the slice contains duplicates.
    pub fn new(nodes: &[NodeId]) -> Self {
        assert!(nodes.len() <= MAX_K, "clique size {} exceeds MAX_K={MAX_K}", nodes.len());
        let mut arr = [NodeId::MAX; MAX_K];
        arr[..nodes.len()].copy_from_slice(nodes);
        arr[..nodes.len()].sort_unstable();
        for w in arr[..nodes.len()].windows(2) {
            assert!(w[0] != w[1], "duplicate node {} in clique", w[0]);
        }
        Clique { len: nodes.len() as u8, nodes: arr }
    }

    /// Builds a clique from a slice that is already sorted ascending and
    /// duplicate-free — the invariant held by [`CliqueStore`] rows — skipping
    /// the sort that [`Clique::new`] performs. The invariant is checked in
    /// debug builds only.
    ///
    /// [`CliqueStore`]: crate::CliqueStore
    ///
    /// # Panics
    /// Panics if `nodes.len() > MAX_K`.
    #[inline]
    pub fn from_sorted(nodes: &[NodeId]) -> Self {
        assert!(nodes.len() <= MAX_K, "clique size {} exceeds MAX_K={MAX_K}", nodes.len());
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "from_sorted input not strictly ascending: {nodes:?}"
        );
        let mut arr = [NodeId::MAX; MAX_K];
        arr[..nodes.len()].copy_from_slice(nodes);
        Clique { len: nodes.len() as u8, nodes: arr }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty clique.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sorted member slice.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }

    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Membership test, `O(log k)`.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.as_slice().binary_search(&u).is_ok()
    }

    /// True when `self` and `other` share no node (Definition 3's disjointness).
    pub fn is_disjoint(&self, other: &Clique) -> bool {
        // Sorted-merge scan; cliques are tiny so this beats hashing.
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Clique score `s_c(C) = Σ_{u ∈ C} s_n(u)` (Definition 6).
    pub fn score(&self, scores: &[u64]) -> u64 {
        self.iter().map(|u| scores[u as usize]).sum()
    }
}

impl std::fmt::Debug for Clique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Clique{:?}", self.as_slice())
    }
}

impl<'a> IntoIterator for &'a Clique {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_members() {
        let c = Clique::new(&[5, 1, 3]);
        assert_eq!(c.as_slice(), &[1, 3, 5]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn from_sorted_matches_new_on_sorted_input() {
        assert_eq!(Clique::from_sorted(&[1, 3, 5]), Clique::new(&[5, 1, 3]));
        assert_eq!(Clique::from_sorted(&[]), Clique::new(&[]));
    }

    #[test]
    fn equality_ignores_input_order() {
        assert_eq!(Clique::new(&[2, 0, 1]), Clique::new(&[0, 1, 2]));
        assert_ne!(Clique::new(&[0, 1, 2]), Clique::new(&[0, 1, 3]));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        let _ = Clique::new(&[1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_K")]
    fn oversized_rejected() {
        let nodes: Vec<NodeId> = (0..MAX_K as NodeId + 1).collect();
        let _ = Clique::new(&nodes);
    }

    #[test]
    fn contains_and_disjoint() {
        let a = Clique::new(&[0, 2, 4]);
        let b = Clique::new(&[1, 3, 5]);
        let c = Clique::new(&[4, 6, 8]);
        assert!(a.contains(2));
        assert!(!a.contains(3));
        assert!(a.is_disjoint(&b));
        assert!(b.is_disjoint(&a));
        assert!(!a.is_disjoint(&c)); // share node 4
        assert!(!c.is_disjoint(&a));
    }

    #[test]
    fn score_sums_member_scores() {
        // Example 3 of the paper: clique C3 = (v5, v6, v8) has node scores
        // 3, 3 and 3, giving a clique score of 9.
        let scores = vec![0, 0, 0, 0, 3, 3, 0, 3, 0];
        let c3 = Clique::new(&[4, 5, 7]); // v5, v6, v8 as 0-based ids
        assert_eq!(c3.score(&scores), 9);
    }

    #[test]
    fn ordering_is_by_length_then_lexicographic() {
        let small = Clique::new(&[0, 9]);
        let big = Clique::new(&[0, 1, 2]);
        assert!(small < big, "shorter cliques order first");
        let a = Clique::new(&[0, 1, 5]);
        let b = Clique::new(&[0, 2, 3]);
        assert!(a < b);
    }

    #[test]
    fn debug_format_shows_members() {
        let c = Clique::new(&[3, 1]);
        assert_eq!(format!("{c:?}"), "Clique[1, 3]");
    }

    #[test]
    fn iter_roundtrip() {
        let c = Clique::new(&[7, 2, 9]);
        let v: Vec<NodeId> = (&c).into_iter().collect();
        assert_eq!(v, vec![2, 7, 9]);
    }
}
