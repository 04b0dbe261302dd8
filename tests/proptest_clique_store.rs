//! Property suite for the flat `CliqueStore` arena: round-trips with the
//! boxed `Vec<Clique>` representation are lossless and mutation mirrors the
//! boxed model exactly. Listing into the arena is checked against the
//! sequential slice visitor in `crates/clique/tests/proptests.rs`.

use disjoint_kcliques::clique::{Clique, CliqueStore};
use proptest::prelude::*;

/// Random `(k, cliques)` fixtures: sorted, duplicate-free rows of width
/// `k` over a small id space (rows may repeat and overlap — the store
/// imposes no disjointness).
fn cliques_strategy() -> impl Strategy<Value = (usize, Vec<Clique>)> {
    (2usize..=6).prop_flat_map(|k| {
        let row = proptest::collection::btree_set(0u32..64, k)
            .prop_map(|s| Clique::new(&s.into_iter().collect::<Vec<_>>()));
        (Just(k), proptest::collection::vec(row, 0..24))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Vec<Clique>` → arena → `Vec<Clique>` is the identity, and every
    /// row accessor agrees with the boxed representation.
    #[test]
    fn store_round_trips_the_boxed_representation((k, cliques) in cliques_strategy()) {
        let store = CliqueStore::from_cliques(k, &cliques);
        prop_assert_eq!(store.k(), k);
        prop_assert_eq!(store.len(), cliques.len());
        prop_assert_eq!(store.to_cliques(), cliques.clone());
        for (i, c) in cliques.iter().enumerate() {
            prop_assert_eq!(store.get(i), c.as_slice());
            prop_assert_eq!(&store.clique(i), c);
        }
        prop_assert_eq!(store.iter().count(), store.len());
        prop_assert_eq!(store.as_flat().len(), k * store.len());
        // Rebuilding from the flat buffer is also the identity.
        let rebuilt = CliqueStore::from_flat(k, store.as_flat().to_vec());
        prop_assert_eq!(&rebuilt, &store);
    }

    /// Arena `push`/`swap_remove` mirror the `Vec<Clique>` model move for
    /// move (swap_remove's replace-with-last included).
    #[test]
    fn mutation_mirrors_the_vec_model(
        (k, cliques) in cliques_strategy(),
        removals in proptest::collection::vec(0usize..1_000_000, 0..8),
    ) {
        let mut model: Vec<Clique> = Vec::new();
        let mut store = CliqueStore::new(k);
        for c in &cliques {
            model.push(*c);
            store.push(c.as_slice());
        }
        for idx in removals {
            if model.is_empty() {
                break;
            }
            let i = idx % model.len();
            let removed = store.swap_remove(i);
            prop_assert_eq!(removed, model.swap_remove(i));
            prop_assert_eq!(store.to_cliques(), model.clone());
        }
        store.sort_canonical();
        model.sort();
        prop_assert_eq!(store.to_cliques(), model);
    }
}
