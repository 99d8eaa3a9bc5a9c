//! B+-tree model check against `std::collections::BTreeMap`, over the
//! public API only.
//!
//! Pages are 512 bytes (25 entries a leaf, 28 separators an internal
//! node), so long streams cross internal splits and root growth, and the
//! 40-page region runs out in the longest ones: a `TableFull` insert must
//! leave tree and model in agreement like any other step.

use std::collections::BTreeMap;

use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
use ipa_ftl::{Ftl, FtlConfig, WriteStrategy};
use ipa_storage::btree::{create, delete, insert, lookup, range};
use ipa_storage::{BufferPool, Catalog, Rid, StorageError, TableSpec};
use proptest::prelude::*;

fn tiny_page_pool() -> BufferPool {
    let chip = FlashChip::new(
        DeviceConfig::new(Geometry::new(64, 16, 512, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none()),
    );
    BufferPool::new(
        Box::new(Ftl::new(chip, FtlConfig::traditional())),
        WriteStrategy::Traditional,
        16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random insert / delete / lookup / sub-range / cache-drop streams
    /// agree with a BTreeMap model, including after every structural split.
    #[test]
    fn btree_matches_model(
        ops in proptest::collection::vec((0u8..12, 0u64..2_000, 0u64..300), 1..1_500)
    ) {
        let mut p = tiny_page_pool();
        let mut c = Catalog::new();
        let id = c.add(TableSpec::index("pt", 40));
        let mut t = c.get(id).clone();
        create(&mut p, &mut t, 1).unwrap();
        let mut model: BTreeMap<u64, Rid> = BTreeMap::new();

        for (op, key, span) in ops {
            match op {
                0..=6 => {
                    let rid = Rid::new(key * 3, (key % 7) as u16);
                    match insert(&mut p, &mut t, key, rid, 2) {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&key));
                            model.insert(key, rid);
                        }
                        Err(StorageError::DuplicateKey(_)) => {
                            prop_assert!(model.contains_key(&key));
                        }
                        Err(StorageError::TableFull(_)) => {
                            prop_assert!(!model.contains_key(&key));
                            prop_assert_eq!(lookup(&mut p, &t, key).unwrap(), None);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                7 | 8 => {
                    let existed = delete(&mut p, &t, key, 3).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
                9 => {
                    prop_assert_eq!(
                        lookup(&mut p, &t, key).unwrap(),
                        model.get(&key).copied()
                    );
                }
                10 => {
                    let mut seen = Vec::new();
                    range(&mut p, &t, key, key + span, |k, r| seen.push((k, r))).unwrap();
                    let expect: Vec<(u64, Rid)> =
                        model.range(key..=key + span).map(|(&k, &r)| (k, r)).collect();
                    prop_assert_eq!(seen, expect);
                }
                _ => p.drop_cache().unwrap(),
            }
        }
        // Full ordered agreement at the end.
        let mut seen = Vec::new();
        range(&mut p, &t, 0, u64::MAX, |k, r| seen.push((k, r))).unwrap();
        let expect: Vec<(u64, Rid)> = model.into_iter().collect();
        prop_assert_eq!(seen, expect);
    }
}
