//! The FTL in isolation (ROADMAP direction 1): greedy GC at steady state
//! under uniform-random page overwrites, no engine above it.
//!
//! The paper-length Table 1 run shows pSLC GC migrations per host write
//! *above* the MLC baseline's, where the paper reports −75 %. This wall
//! answers whether `ipa-ftl` itself is to blame: on a bare
//! `Ftl<FlashChip>` at equal usable pages and equal fill, GC cost must not
//! depend on the flash mode, and pSLC — smaller blocks, and a reserve
//! counted in blocks that therefore withholds half the pages — must come
//! out no worse than MLC. It does (it is *favoured*), so greedy victim
//! selection and the reserve accounting are cleared; what remains is the
//! experiment above the FTL (`StackSpec::build`'s sizing, the time box,
//! the append-only `history` table).

use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, Ftl, FtlConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGES_PER_BLOCK: u32 = 64;
const PAGE_SIZE: usize = 2048;

/// GC page migrations over the second half of a uniform-random overwrite
/// run confined to `fill` of the exported capacity, with the host writes
/// they are spread over.
fn steady_state(mode: FlashMode, blocks: u32, fill: f64) -> (u64, u64) {
    let geometry = Geometry::new(blocks, PAGES_PER_BLOCK, PAGE_SIZE, 64);
    let chip = FlashChip::new(DeviceConfig::new(geometry, mode).with_disturb(DisturbRates::none()));
    let mut ftl = Ftl::new(chip, FtlConfig::traditional());
    let live = (ftl.capacity_pages() as f64 * fill) as u64;
    let page = vec![0x5Au8; PAGE_SIZE];
    for lba in 0..live {
        ftl.write(lba, &page).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(7);
    let mut overwrite = |ftl: &mut Ftl, writes: u64| {
        for _ in 0..writes {
            ftl.write(rng.gen_range(0..live), &page).unwrap();
        }
    };
    let half = ftl.capacity_pages() * 3 / 2;
    overwrite(&mut ftl, half);
    let warm = ftl.device_stats();
    overwrite(&mut ftl, half);
    let run = ftl.device_stats().delta_since(&warm);
    ftl.check_invariants();
    (run.gc_page_migrations, run.host_writes)
}

#[test]
fn gc_cost_is_mode_independent_and_favours_pslc_at_equal_usable_pages() {
    // 64 MLC blocks and 128 pSLC blocks hold the same 4 096 usable pages.
    // Migrations per host write, measured on a longer run of this shape
    // when the wall was built (this run reads 7.25 / 2.39 / 1.22 and
    // 4.62 / 1.91 / 1.01):
    //   fill      1.0    0.9    0.8
    //   MLC       7.19   2.40   1.21
    //   pSLC      4.54   1.88   1.01
    let measured = [(1.0, 7.19, 4.54), (0.9, 2.40, 1.88), (0.8, 1.21, 1.01)];
    let mut previous = (f64::MAX, f64::MAX);
    for (fill, mlc_measured, pslc_measured) in measured {
        let (mlc, writes) = steady_state(FlashMode::MlcFull, 64, fill);
        if fill == 0.8 {
            // Every mode with 64 usable pages a block runs the very same
            // GC: not close, equal.
            assert_eq!(steady_state(FlashMode::OddMlc, 64, fill), (mlc, writes));
            assert_eq!(steady_state(FlashMode::Slc, 64, fill), (mlc, writes));
        }
        let (pslc, pslc_writes) = steady_state(FlashMode::PSlc, 128, fill);
        let per_write = (mlc as f64 / writes as f64, pslc as f64 / pslc_writes as f64);
        println!(
            "fill {fill}: MLC {:.2}, pSLC {:.2} migrations/host write",
            per_write.0, per_write.1
        );
        assert!(
            per_write.1 <= per_write.0,
            "fill {fill}: pSLC must not migrate more than MLC at equal usable pages: {per_write:?}"
        );
        assert!(
            per_write.0 < previous.0 && per_write.1 < previous.1,
            "migrations must fall with fill: {per_write:?} after {previous:?}"
        );
        // Within 15 % of the measured figure.
        for (got, want) in [(per_write.0, mlc_measured), (per_write.1, pslc_measured)] {
            assert!(
                (got / want - 1.0).abs() < 0.15,
                "fill {fill}: {got:.2} migrations/host write, measured {want}"
            );
        }
        previous = per_write;
    }
}
