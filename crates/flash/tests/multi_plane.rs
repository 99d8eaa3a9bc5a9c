//! Multi-plane command constraints: the alignment rule, per-plane NOP and
//! reprogram budgets, atomicity, and the one-staircase timing claim.
//!
//! Cross-die pairings are impossible to *express* at this layer — a
//! [`FlashChip`] is one die, and the controller's `DieHandle` routes every
//! multi-plane command to exactly one die — so the typed-error surface
//! covers every same-die misalignment: wrong page offset, wrong in-plane
//! block index, a plane addressed twice, too few pages.

use ipa_flash::{
    DeviceConfig, DisturbRates, FlashChip, FlashError, FlashMode, Geometry, MultiPlaneWrite, Nand,
    Ppa,
};
use proptest::prelude::*;

fn chip(planes: u32) -> FlashChip {
    FlashChip::new(
        DeviceConfig::new(
            Geometry::new(16, 8, 2048, 64).with_planes(planes),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none()),
    )
}

fn img(chip: &FlashChip, fill: u8) -> (Vec<u8>, Vec<u8>) {
    (
        vec![fill; chip.geometry().page_size],
        vec![0xFF; chip.geometry().oob_size],
    )
}

#[test]
fn aligned_pair_programs_both_planes() {
    let mut c = chip(2);
    let (data, oob) = img(&c, 0x5A);
    let pages = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 3),
            data: &data,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(1, 3),
            data: &data,
            oob: &oob,
        },
    ];
    c.multi_plane_program(&pages).unwrap();
    assert_eq!(c.read_page(Ppa::new(0, 3)).unwrap().data, data);
    assert_eq!(c.read_page(Ppa::new(1, 3)).unwrap().data, data);
    let s = c.stats();
    assert_eq!(s.page_programs, 2);
    assert_eq!(s.multi_plane_programs, 1);
}

#[test]
fn misaligned_pairings_are_rejected_with_typed_errors() {
    let mut c = chip(2);
    let (data, oob) = img(&c, 0x00);
    fn pair<'a>(a: Ppa, b: Ppa, data: &'a [u8], oob: &'a [u8]) -> [MultiPlaneWrite<'a>; 2] {
        [
            MultiPlaneWrite { ppa: a, data, oob },
            MultiPlaneWrite { ppa: b, data, oob },
        ]
    }
    // Different page offset.
    let err = c
        .multi_plane_program(&pair(Ppa::new(0, 1), Ppa::new(1, 2), &data, &oob))
        .unwrap_err();
    assert!(matches!(
        err,
        FlashError::MultiPlaneMismatch {
            reason: "page offsets differ across planes",
            ..
        }
    ));
    // Different in-plane block index (block group).
    let err = c
        .multi_plane_program(&pair(Ppa::new(0, 1), Ppa::new(3, 1), &data, &oob))
        .unwrap_err();
    assert!(matches!(
        err,
        FlashError::MultiPlaneMismatch {
            reason: "in-plane block indexes differ",
            ..
        }
    ));
    // Same plane twice (the only same-group duplicate is the same block;
    // distinct blocks of one plane always differ in group and are caught
    // by the block-index rule above).
    let err = c
        .multi_plane_program(&pair(Ppa::new(0, 1), Ppa::new(0, 1), &data, &oob))
        .unwrap_err();
    assert!(matches!(
        err,
        FlashError::MultiPlaneMismatch {
            reason: "plane addressed more than once",
            ..
        }
    ));
    // A single page is not a multi-plane command.
    let one = [MultiPlaneWrite {
        ppa: Ppa::new(0, 1),
        data: &data,
        oob: &oob,
    }];
    assert!(matches!(
        c.multi_plane_program(&one),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));
    // Nothing was programmed by any of the rejections.
    assert_eq!(c.stats().page_programs, 0);
    assert_eq!(c.stats().busy_ns, 0, "failed commands cost nothing");
}

#[test]
fn multi_plane_read_enforces_the_same_alignment() {
    let mut c = chip(2);
    let (data, oob) = img(&c, 0xA5);
    for b in [0, 1] {
        c.program_page(Ppa::new(b, 4), &data, &oob).unwrap();
    }
    let images = c
        .multi_plane_read(&[Ppa::new(0, 4), Ppa::new(1, 4)])
        .unwrap();
    assert_eq!(images.len(), 2);
    assert!(images.iter().all(|i| i.data == data));
    assert_eq!(c.stats().multi_plane_reads, 1);
    assert!(matches!(
        c.multi_plane_read(&[Ppa::new(0, 4), Ppa::new(1, 5)]),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));
    // Reading an erased member rejects the whole command.
    assert!(matches!(
        c.multi_plane_read(&[Ppa::new(0, 5), Ppa::new(1, 5)]),
        Err(FlashError::ReadErased { .. })
    ));
}

#[test]
fn nop_budget_is_enforced_per_plane() {
    let mut c = FlashChip::new(
        DeviceConfig::new(
            Geometry::new(16, 8, 2048, 64).with_planes(2),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none())
        .with_nop(2),
    );
    let (mut a, oob) = img(&c, 0xFF);
    a[0] = 0xF0;
    // Exhaust plane 1's page NOP budget (2 programs) while plane 0's
    // partner page keeps a free program.
    c.program_page(Ppa::new(1, 0), &a, &oob).unwrap();
    a[1] = 0xF0;
    c.reprogram_page(Ppa::new(1, 0), &a, &oob).unwrap();
    c.program_page(Ppa::new(0, 0), &a, &oob).unwrap();

    // A multi-plane reprogram must check each plane's own budget: plane 1
    // is out, so the whole command is rejected even though plane 0 could
    // still program.
    let mut b = a.clone();
    b[2] = 0xF0;
    let pages = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 0),
            data: &b,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(1, 0),
            data: &b,
            oob: &oob,
        },
    ];
    match c.multi_plane_program(&pages) {
        Err(FlashError::NopExceeded { ppa, nop }) => {
            assert_eq!(ppa, Ppa::new(1, 0), "the exhausted plane is named");
            assert_eq!(nop, 2);
        }
        other => panic!("expected NopExceeded, got {other:?}"),
    }
    // Atomicity: plane 0's page kept its old image and budget.
    assert_eq!(c.program_count(Ppa::new(0, 0)).unwrap(), 1);
    assert_eq!(c.read_page(Ppa::new(0, 0)).unwrap().data, a);
}

#[test]
fn reprogram_members_obey_the_overwrite_rule_per_plane() {
    let mut c = chip(2);
    let (mut a, oob) = img(&c, 0xFF);
    a[10] = 0x0F;
    c.program_page(Ppa::new(0, 2), &a, &oob).unwrap();
    c.program_page(Ppa::new(1, 2), &a, &oob).unwrap();
    // Plane 0's member is a legal 1→0 append; plane 1's needs 0→1.
    let mut legal = a.clone();
    legal[11] = 0x00;
    let mut illegal = a.clone();
    illegal[10] = 0xFF;
    let pages = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 2),
            data: &legal,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(1, 2),
            data: &illegal,
            oob: &oob,
        },
    ];
    match c.multi_plane_program(&pages) {
        Err(FlashError::IllegalOverwrite { ppa, .. }) => assert_eq!(ppa, Ppa::new(1, 2)),
        other => panic!("expected IllegalOverwrite, got {other:?}"),
    }
    // Neither plane changed.
    assert_eq!(c.read_page(Ppa::new(0, 2)).unwrap().data, a);
    assert_eq!(c.read_page(Ppa::new(1, 2)).unwrap().data, a);

    // A fully legal pair of appends lands as one staircase.
    let pages = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 2),
            data: &legal,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(1, 2),
            data: &legal,
            oob: &oob,
        },
    ];
    c.multi_plane_program(&pages).unwrap();
    assert_eq!(c.stats().page_reprograms, 2);
    assert_eq!(c.stats().multi_plane_programs, 1);
}

#[test]
fn one_staircase_beats_two_sequential_programs() {
    // The point of the whole subsystem: a paired program charges one
    // staircase + both transfers, so it must land well under 2× a single
    // program and the derived program bandwidth must approach 2×.
    let (data, oob) = img(&chip(2), 0x00);
    let single = {
        let mut c = chip(2);
        c.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        c.elapsed_ns()
    };
    let paired = {
        let mut c = chip(2);
        let pages = [
            MultiPlaneWrite {
                ppa: Ppa::new(0, 0),
                data: &data,
                oob: &oob,
            },
            MultiPlaneWrite {
                ppa: Ppa::new(1, 0),
                data: &data,
                oob: &oob,
            },
        ];
        c.multi_plane_program(&pages).unwrap();
        c.elapsed_ns()
    };
    assert!(
        paired < 2 * single,
        "pair {paired} ns must beat two sequential programs 2×{single} ns"
    );
    // 2 pages / paired ns vs 1 page / single ns: ≥ 1.5× bandwidth.
    assert!(
        2 * single >= 3 * paired / 2,
        "paired program bandwidth below 1.5× ({paired} vs {single} ns)"
    );
}

#[test]
fn per_plane_erase_counters_aggregate_to_block_erases() {
    let mut c = chip(4);
    // Erase a skewed pattern: plane 1 twice, plane 3 once, plane 0 never.
    c.erase_block(1).unwrap();
    c.erase_block(5).unwrap();
    c.erase_block(3).unwrap();
    assert_eq!(c.plane_erase_count(0), 0);
    assert_eq!(c.plane_erase_count(1), 2);
    assert_eq!(c.plane_erase_count(2), 0);
    assert_eq!(c.plane_erase_count(3), 1);
    assert_eq!(
        c.plane_erase_counts().iter().sum::<u64>(),
        c.stats().block_erases
    );
}

#[test]
fn aligned_group_erase_is_one_pulse() {
    let (data, oob) = img(&chip(2), 0x00);
    // Two sequential erases pay two pulses…
    let sequential = {
        let mut c = chip(2);
        c.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        c.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
        let t0 = c.elapsed_ns();
        c.erase_block(0).unwrap();
        c.erase_block(1).unwrap();
        c.elapsed_ns() - t0
    };
    // …one aligned group erase pays one.
    let mut c = chip(2);
    c.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
    c.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
    let t0 = c.elapsed_ns();
    c.multi_plane_erase(&[0, 1]).unwrap();
    let paired = c.elapsed_ns() - t0;
    assert!(c.is_erased(Ppa::new(0, 0)).unwrap());
    assert!(c.is_erased(Ppa::new(1, 0)).unwrap());
    let s = c.stats();
    assert_eq!(s.block_erases, 2, "member blocks count individually");
    assert_eq!(s.multi_plane_erases, 1, "one shared pulse in the books");
    assert_eq!(
        2 * paired,
        sequential,
        "the group erase charges exactly one pulse"
    );
    assert_eq!(c.erase_count(0).unwrap(), 1);
    assert_eq!(c.erase_count(1).unwrap(), 1);
}

#[test]
fn misaligned_erase_groups_rejected_with_typed_errors() {
    let mut c = chip(2);
    // Different in-plane block index (block group).
    assert!(matches!(
        c.multi_plane_erase(&[0, 3]),
        Err(FlashError::MultiPlaneMismatch {
            reason: "in-plane block indexes differ",
            ..
        })
    ));
    // Same plane twice.
    assert!(matches!(
        c.multi_plane_erase(&[0, 0]),
        Err(FlashError::MultiPlaneMismatch {
            reason: "plane addressed more than once",
            ..
        })
    ));
    // Too few blocks.
    assert!(matches!(
        c.multi_plane_erase(&[]),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));
    assert!(matches!(
        c.multi_plane_erase(&[4]),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));
    // Out of bounds.
    assert!(matches!(
        c.multi_plane_erase(&[98, 99]),
        Err(FlashError::OutOfBounds { .. })
    ));
    // Nothing was erased by any of the rejections.
    assert_eq!(c.stats().block_erases, 0);
    assert_eq!(c.stats().busy_ns, 0, "failed commands cost nothing");
}

#[test]
fn group_erase_is_atomic_over_bad_blocks() {
    let mut c = chip(2);
    let (data, oob) = img(&c, 0x00);
    c.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
    c.retire_block(1).unwrap();
    // One bad member rejects the whole command; the good member's data
    // and wear are untouched.
    assert!(matches!(
        c.multi_plane_erase(&[0, 1]),
        Err(FlashError::BadBlock { block: 1 })
    ));
    assert!(!c.is_erased(Ppa::new(0, 0)).unwrap());
    assert_eq!(c.erase_count(0).unwrap(), 0);
    assert_eq!(c.stats().block_erases, 0);
}

#[test]
fn group_erase_counts_wear_per_plane_and_retires_on_endurance() {
    let mut cfg = DeviceConfig::new(
        Geometry::new(16, 8, 2048, 64).with_planes(2),
        FlashMode::Slc,
    )
    .with_disturb(DisturbRates::none());
    cfg.erase_endurance = 3;
    let mut c = FlashChip::new(cfg);
    for _ in 0..3 {
        c.multi_plane_erase(&[0, 1]).unwrap();
    }
    // Per-plane wear aggregates exactly like sequential erases…
    assert_eq!(c.plane_erase_count(0), 3);
    assert_eq!(c.plane_erase_count(1), 3);
    assert_eq!(
        c.plane_erase_counts().iter().sum::<u64>(),
        c.stats().block_erases
    );
    // …and endurance retires every member of the worn group.
    assert!(c.is_bad(0));
    assert!(c.is_bad(1));
    assert!(matches!(
        c.multi_plane_erase(&[0, 1]),
        Err(FlashError::BadBlock { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any aligned pair round-trips through one command; state matches a
    /// chip that programmed the same pages sequentially.
    #[test]
    fn paired_state_matches_sequential_state(
        group in 0u32..8,
        page in 0u32..8,
        fill in 0u8..=0xFE,
    ) {
        let a = Ppa::new(group * 2, page);
        let b = Ppa::new(group * 2 + 1, page);
        let mut paired = chip(2);
        let (data, oob) = img(&paired, fill);
        let pages = [
            MultiPlaneWrite { ppa: a, data: &data, oob: &oob },
            MultiPlaneWrite { ppa: b, data: &data, oob: &oob },
        ];
        paired.multi_plane_program(&pages).unwrap();

        let mut sequential = chip(2);
        sequential.program_page(a, &data, &oob).unwrap();
        sequential.program_page(b, &data, &oob).unwrap();

        for ppa in [a, b] {
            prop_assert_eq!(paired.peek_data(ppa), sequential.peek_data(ppa));
            prop_assert_eq!(
                paired.program_count(ppa).unwrap(),
                sequential.program_count(ppa).unwrap()
            );
        }
        prop_assert!(paired.elapsed_ns() < sequential.elapsed_ns());
    }

    /// Any aligned block group erases to the same state as sequential
    /// erases, in strictly less time.
    #[test]
    fn group_erase_state_matches_sequential_state(
        group in 0u32..8,
        page in 0u32..8,
        fill in 0u8..=0xFE,
    ) {
        let a = group * 2;
        let b = group * 2 + 1;
        let mut grouped = chip(2);
        let (data, oob) = img(&grouped, fill);
        let mut sequential = chip(2);
        for c in [&mut grouped, &mut sequential] {
            c.program_page(Ppa::new(a, page), &data, &oob).unwrap();
            c.program_page(Ppa::new(b, page), &data, &oob).unwrap();
        }
        grouped.multi_plane_erase(&[a, b]).unwrap();
        sequential.erase_block(a).unwrap();
        sequential.erase_block(b).unwrap();
        for block in [a, b] {
            prop_assert!(grouped.is_erased(Ppa::new(block, page)).unwrap());
            prop_assert_eq!(
                grouped.erase_count(block).unwrap(),
                sequential.erase_count(block).unwrap()
            );
        }
        prop_assert!(grouped.elapsed_ns() < sequential.elapsed_ns());
    }
}

#[test]
fn default_trait_fallback_keeps_state_identical() {
    // A `Nand` implementor without native multi-plane support (the trait
    // default) must produce the same bytes, just without the overlap.
    struct Plain(FlashChip);
    impl std::ops::Deref for Plain {
        type Target = FlashChip;
        fn deref(&self) -> &FlashChip {
            &self.0
        }
    }
    // Route the default multi_plane_program through single programs by
    // NOT overriding it.
    impl Nand for Plain {
        fn geometry(&self) -> Geometry {
            *self.0.geometry()
        }
        fn mode(&self) -> FlashMode {
            FlashChip::mode(&self.0)
        }
        fn flash_stats(&self) -> ipa_flash::FlashStats {
            *self.0.stats()
        }
        fn elapsed_ns(&self) -> u64 {
            self.0.elapsed_ns()
        }
        fn nop_limit(&self, page: u32) -> u16 {
            self.0.nop_limit(page)
        }
        fn is_erased(&self, ppa: Ppa) -> ipa_flash::Result<bool> {
            self.0.is_erased(ppa)
        }
        fn program_count(&self, ppa: Ppa) -> ipa_flash::Result<u16> {
            self.0.program_count(ppa)
        }
        fn erase_count(&self, block: u32) -> ipa_flash::Result<u32> {
            self.0.erase_count(block)
        }
        fn max_erase_count(&self) -> u32 {
            self.0.max_erase_count()
        }
        fn is_bad(&self, block: u32) -> bool {
            self.0.is_bad(block)
        }
        fn peek_data(&self, ppa: Ppa) -> Option<Vec<u8>> {
            self.0.peek_data(ppa).map(<[u8]>::to_vec)
        }
        fn peek_oob(&self, ppa: Ppa) -> Option<Vec<u8>> {
            self.0.peek_oob(ppa).map(<[u8]>::to_vec)
        }
        fn read_page(&mut self, ppa: Ppa) -> ipa_flash::Result<ipa_flash::PageImage> {
            self.0.read_page(ppa)
        }
        fn program_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> ipa_flash::Result<()> {
            self.0.program_page(ppa, data, oob)
        }
        fn reprogram_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> ipa_flash::Result<()> {
            self.0.reprogram_page(ppa, data, oob)
        }
        fn append_region(
            &mut self,
            ppa: Ppa,
            data_off: usize,
            bytes: &[u8],
            oob_off: usize,
            oob_bytes: &[u8],
        ) -> ipa_flash::Result<()> {
            self.0
                .append_region(ppa, data_off, bytes, oob_off, oob_bytes)
        }
        fn erase_block(&mut self, block: u32) -> ipa_flash::Result<()> {
            self.0.erase_block(block)
        }
    }

    let mut plain = Plain(chip(2));
    let mut native = chip(2);
    let (data, oob) = img(&native, 0x3C);
    let pages = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 0),
            data: &data,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(1, 0),
            data: &data,
            oob: &oob,
        },
    ];
    Nand::multi_plane_program(&mut plain, &pages).unwrap();
    native.multi_plane_program(&pages).unwrap();
    for b in [0, 1] {
        assert_eq!(
            plain.peek_data(Ppa::new(b, 0)),
            native.peek_data(Ppa::new(b, 0)).map(<[u8]>::to_vec)
        );
    }
    // The provided borrowed reads (owned read + copy) return what the
    // chip's direct ones do, and check the caller's buffers first.
    let g = *native.geometry();
    let (mut d, mut o) = (vec![0xEE; g.page_size], vec![0xEE; g.oob_size]);
    let (mut nd, mut no) = (d.clone(), o.clone());
    Nand::read_page_into(&mut plain, Ppa::new(0, 0), &mut d, &mut o).unwrap();
    native
        .read_page_into(Ppa::new(0, 0), &mut nd, &mut no)
        .unwrap();
    assert_eq!((&d, &o), (&nd, &no));
    d.fill(0xEE);
    Nand::copyback_read_into(&mut plain, Ppa::new(1, 0), &mut d, &mut o).unwrap();
    assert_eq!(d, nd);
    let reads = plain.0.stats().page_reads;
    let mut short = vec![0xEE; g.oob_size - 1];
    assert!(matches!(
        Nand::read_page_into(&mut plain, Ppa::new(0, 0), &mut d, &mut short),
        Err(FlashError::SizeMismatch { .. })
    ));
    assert!(short.iter().all(|&b| b == 0xEE));
    assert_eq!(plain.0.stats().page_reads, reads, "rejected before reading");

    // The fallback still rejects misaligned pairs.
    let bad = [
        MultiPlaneWrite {
            ppa: Ppa::new(0, 0),
            data: &data,
            oob: &oob,
        },
        MultiPlaneWrite {
            ppa: Ppa::new(2, 0),
            data: &data,
            oob: &oob,
        },
    ];
    assert!(matches!(
        Nand::multi_plane_program(&mut plain, &bad),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));

    // The erase default falls back to sequential erases: same state,
    // same alignment rule.
    Nand::multi_plane_erase(&mut plain, &[0, 1]).unwrap();
    native.multi_plane_erase(&[0, 1]).unwrap();
    for b in [0, 1] {
        assert!(plain.0.is_erased(Ppa::new(b, 0)).unwrap());
        assert_eq!(
            plain.0.erase_count(b).unwrap(),
            native.erase_count(b).unwrap()
        );
    }
    assert_eq!(plain.0.stats().multi_plane_erases, 0, "fallback, no pulse");
    assert_eq!(native.stats().multi_plane_erases, 1);
    assert!(matches!(
        Nand::multi_plane_erase(&mut plain, &[0, 2]),
        Err(FlashError::MultiPlaneMismatch { .. })
    ));
}
