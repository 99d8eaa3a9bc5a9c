//! Cross-strategy assertion helpers.

use ipa_core::NmScheme;
use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::{Driver, DriverConfig, RunResult, StackSpec, WorkloadKind};

use crate::fixtures::{all_strategies, heap_engine};
use crate::ops::ModelHarness;

/// Run the same seeded op stream under every write strategy and assert
/// all of them converge to the identical logical state — both against
/// their own model after a cold restart, and against each other.
///
/// This is the workspace's strongest equivalence statement: whatever the
/// device does underneath (full page writes, conventional-SSD in-place
/// detection, native `write_delta` appends, GC migrations, fallbacks),
/// the DBMS-visible bytes must not depend on the write path.
pub fn assert_strategies_agree(seed: u64, ops: usize) {
    let mut canonical: Option<Vec<(ipa_storage::Rid, Vec<u8>)>> = None;
    for (strategy, scheme) in all_strategies() {
        let mut e = heap_engine(strategy, scheme, seed);
        let t = e.table("m").unwrap();
        let mut h = ModelHarness::new(seed, format!("{strategy:?}(seed {seed})"));
        h.run(&mut e, t, ops);
        e.restart_clean().unwrap();
        h.assert_engine_matches(&mut e, t);
        let rows = h.canonical_rows();
        match &canonical {
            None => canonical = Some(rows),
            Some(expect) => assert_eq!(
                expect, &rows,
                "{strategy:?} diverged from the other strategies at seed {seed}"
            ),
        }
    }
}

/// A quick deterministic benchmark run: `txs` transactions of `kind` at
/// scale 1 on pSLC flash.
pub fn quick_run(
    kind: WorkloadKind,
    strategy: WriteStrategy,
    scheme: NmScheme,
    txs: u64,
    seed: u64,
) -> RunResult {
    let cfg = DriverConfig::default()
        .with_transactions(txs)
        .with_seed(seed);
    let spec = StackSpec::chip(strategy, scheme, FlashMode::PSlc);
    Driver::run_spec(kind, 1, &spec, &cfg).expect("benchmark run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_agree_on_a_short_stream() {
        assert_strategies_agree(0xA11CE, 250);
    }

    #[test]
    fn quick_run_is_deterministic() {
        let a = quick_run(
            WorkloadKind::TpcB,
            WriteStrategy::IpaNative,
            NmScheme::new(2, 4),
            120,
            9,
        );
        let b = quick_run(
            WorkloadKind::TpcB,
            WriteStrategy::IpaNative,
            NmScheme::new(2, 4),
            120,
            9,
        );
        assert_eq!(a.device.host_writes, b.device.host_writes);
        assert_eq!(a.device.page_invalidations, b.device.page_invalidations);
    }
}
