//! B+-tree model check against `std::collections::BTreeMap` over the
//! public API, on a testkit pool. Lives as an integration test (rather
//! than a `#[cfg(test)]` module) so it can share the workspace-wide
//! fixtures in `ipa-testkit`.

use std::collections::BTreeMap;

use ipa_storage::btree::{create, delete, insert, lookup, range};
use ipa_storage::{Catalog, Rid, StorageError, TableSpec};
use ipa_testkit::small_pool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random insert/delete/lookup streams agree with a BTreeMap model,
    /// including after every structural split.
    #[test]
    fn btree_matches_model(
        ops in proptest::collection::vec((0u8..3, 0u64..500), 1..400)
    ) {
        let mut p = small_pool(16, 0);
        let mut c = Catalog::new();
        let id = c.add(TableSpec::index("pt", 64));
        let mut t = c.get(id).clone();
        create(&mut p, &mut t, 1).unwrap();
        let mut model: BTreeMap<u64, Rid> = BTreeMap::new();

        for (op, key) in ops {
            match op {
                0 => {
                    let rid = Rid::new(key * 3, (key % 7) as u16);
                    match insert(&mut p, &mut t, key, rid, 2) {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&key));
                            model.insert(key, rid);
                        }
                        Err(StorageError::DuplicateKey(_)) => {
                            prop_assert!(model.contains_key(&key));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                1 => {
                    let existed = delete(&mut p, &t, key, 3).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
                _ => {
                    prop_assert_eq!(
                        lookup(&mut p, &t, key).unwrap(),
                        model.get(&key).copied()
                    );
                }
            }
        }
        // Full ordered agreement at the end.
        let mut seen = Vec::new();
        range(&mut p, &t, 0, u64::MAX, |k, r| seen.push((k, r))).unwrap();
        let expect: Vec<(u64, Rid)> = model.into_iter().collect();
        prop_assert_eq!(seen, expect);
    }
}
