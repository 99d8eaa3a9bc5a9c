//! OOB-area codec — Figure 3's `ECC_initial … ECC_delta_rec 1..N` layout.
//!
//! The OOB area of every flash page holds:
//!
//! ```text
//! ┌──────────────────────────────┬──────────┬───┬──────────┐
//! │ ECC_initial (k codewords)    │ ECC_rec 0│ … │ ECC_rec N-1 │ … erased
//! └──────────────────────────────┴──────────┴───┴──────────┘
//! ```
//!
//! * `ECC_initial` covers the page image *minus the delta-record area*
//!   (header + body + footer) — the bytes that never change between an
//!   out-of-place write and the next erase.
//! * `ECC_rec i` covers delta record slot `i` alone and is appended into
//!   its own erased OOB slot together with the record, so the append stays
//!   a legal `1 → 0` program on both planes.
//!
//! Without an IPA layout the whole page is covered by `ECC_initial`.
//!
//! The bytes `ECC_initial` covers are the page with the delta-record area
//! cut out, split into [`CHUNK`]-byte chunks as if the two sides of the
//! gap were concatenated. Nothing is concatenated: every chunk is encoded
//! and checked as a **view** of the page itself. At most one chunk
//! straddles the gap (its head is the last bytes before the delta area,
//! its tail the first bytes after it — the footer); only that one is
//! assembled in a `CHUNK`-byte stack buffer, and written back only when
//! the check corrected a bit in it.

use std::ops::Range;

use ipa_core::PageLayout;
use ipa_flash::ecc::{
    check_chunk, codewords_for, encode_chunk, Codeword, EccOutcome, CHUNK, CODEWORD_BYTES,
};

/// Per-page-format OOB codec.
#[derive(Debug, Clone)]
pub struct OobCodec {
    page_size: usize,
    oob_size: usize,
    layout: Option<PageLayout>,
    initial_codewords: usize,
}

/// Result of verifying a page against its OOB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Bits corrected across the initial region and all records.
    pub corrected_bits: u64,
}

/// The page had more bit errors than SECDED can repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncorrectableError;

impl std::fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable ECC error")
    }
}

impl std::error::Error for UncorrectableError {}

impl OobCodec {
    /// Build a codec; panics if the OOB area cannot hold the codewords the
    /// format needs (a configuration error, caught at device setup).
    pub fn new(page_size: usize, oob_size: usize, layout: Option<PageLayout>) -> Self {
        if let Some(l) = &layout {
            assert_eq!(l.page_size, page_size, "layout/page size mismatch");
            assert!(
                l.record_size() <= CHUNK,
                "delta record ({} B) exceeds one ECC chunk ({CHUNK} B)",
                l.record_size()
            );
        }
        let initial_len = match &layout {
            Some(l) => page_size - l.delta_area_len(),
            None => page_size,
        };
        let initial_codewords = codewords_for(initial_len);
        let records = layout.as_ref().map(|l| l.scheme.n as usize).unwrap_or(0);
        let needed = (initial_codewords + records) * CODEWORD_BYTES;
        assert!(
            needed <= oob_size,
            "OOB too small: need {needed} B (ECC_initial {initial_codewords} cw + {records} \
             record cw), have {oob_size} B"
        );
        OobCodec {
            page_size,
            oob_size,
            layout,
            initial_codewords,
        }
    }

    #[inline]
    pub fn layout(&self) -> Option<&PageLayout> {
        self.layout.as_ref()
    }

    /// OOB byte offset of delta record `i`'s codeword.
    #[inline]
    pub fn record_oob_offset(&self, i: u16) -> usize {
        (self.initial_codewords + i as usize) * CODEWORD_BYTES
    }

    /// Where `ECC_initial` chunk `i` lives in the page, as `(head, tail)`
    /// byte ranges. `tail` is empty — the chunk is the plain sub-slice
    /// `head` — for every chunk but the one straddling the delta-record
    /// gap, whose bytes are `head` (up to the gap) then `tail` (after it).
    fn initial_chunk(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let gap = match &self.layout {
            Some(l) => l.delta_area_range(),
            None => self.page_size..self.page_size,
        };
        let start = i * CHUNK;
        let end = (start + CHUNK).min(self.page_size - gap.len());
        let before = start.min(gap.start)..end.min(gap.start);
        let after = start.max(gap.start) + gap.len()..end.max(gap.start) + gap.len();
        if before.is_empty() {
            (after, 0..0)
        } else {
            (before, after)
        }
    }

    /// Build the full OOB image for an out-of-place page write: initial
    /// codewords, record codewords for any records already present in the
    /// image (GC migrations carry them along), erased elsewhere.
    pub fn encode_oob(&self, page: &[u8]) -> Vec<u8> {
        debug_assert_eq!(page.len(), self.page_size);
        let mut oob = vec![0xFFu8; self.oob_size];
        for i in 0..self.initial_codewords {
            let (head, tail) = self.initial_chunk(i);
            let cw = if tail.is_empty() {
                encode_chunk(&page[head])
            } else {
                let (buf, len) = gather(page, &head, &tail);
                encode_chunk(&buf[..len])
            };
            let off = i * CODEWORD_BYTES;
            oob[off..off + CODEWORD_BYTES].copy_from_slice(&cw.to_bytes());
        }
        if let Some(l) = &self.layout {
            for i in 0..l.scheme.n {
                let slot = self.record_slice(page, i);
                if slot[0] != 0xFF {
                    let cw = encode_chunk(slot);
                    let off = self.record_oob_offset(i);
                    oob[off..off + CODEWORD_BYTES].copy_from_slice(&cw.to_bytes());
                }
            }
        }
        oob
    }

    /// Codeword bytes for one delta record slot image (the OOB append that
    /// accompanies a `write_delta`).
    pub fn encode_record(&self, record_bytes: &[u8]) -> [u8; CODEWORD_BYTES] {
        encode_chunk(record_bytes).to_bytes()
    }

    fn record_slice<'a>(&self, page: &'a [u8], i: u16) -> &'a [u8] {
        let l = self.layout.as_ref().expect("record access requires layout");
        let off = l.record_offset(i);
        &page[off..off + l.record_size()]
    }

    /// Verify a page image against its OOB, correcting single-bit errors
    /// in place.
    ///
    /// Corrections are incremental: chunks and record slots are checked in
    /// order, each repair lands in `page` as it is made, and an `Err`
    /// leaves the repairs made before the failing chunk in place (the
    /// failing chunk itself is untouched). Every repair is a single-bit
    /// fix that re-encodes to its unchanged codeword, so a partly repaired
    /// page is still consistent with the OOB it was verified against.
    pub fn verify(&self, page: &mut [u8], oob: &[u8]) -> Result<VerifyOutcome, UncorrectableError> {
        debug_assert_eq!(page.len(), self.page_size);
        debug_assert_eq!(oob.len(), self.oob_size);
        let mut corrected = 0u64;

        // 1. Initial region, chunk by chunk, in place.
        for i in 0..self.initial_codewords {
            let off = i * CODEWORD_BYTES;
            let slot: &[u8; CODEWORD_BYTES] = oob[off..off + CODEWORD_BYTES]
                .try_into()
                .expect("slot width");
            // Erased codeword for a programmed page: treat as data loss
            // (write path always writes ECC_initial).
            let cw = Codeword::from_bytes(slot).ok_or(UncorrectableError)?;
            let (head, tail) = self.initial_chunk(i);
            let outcome = if tail.is_empty() {
                check_chunk(&mut page[head], cw)
            } else {
                let (mut buf, len) = gather(page, &head, &tail);
                let outcome = check_chunk(&mut buf[..len], cw);
                if let EccOutcome::Corrected { .. } = outcome {
                    page[head.clone()].copy_from_slice(&buf[..head.len()]);
                    page[tail].copy_from_slice(&buf[head.len()..len]);
                }
                outcome
            };
            match outcome {
                EccOutcome::Clean => {}
                EccOutcome::Corrected { .. } => corrected += 1,
                EccOutcome::Uncorrectable => return Err(UncorrectableError),
            }
        }

        // 2. Delta records: verify exactly those slots whose OOB codeword
        //    was written. The OOB marker is authoritative — a disturbed
        //    control byte in the data area cannot fabricate a record.
        if let Some(l) = self.layout {
            for i in 0..l.scheme.n {
                let off = self.record_oob_offset(i);
                let slot: &[u8; CODEWORD_BYTES] = oob[off..off + CODEWORD_BYTES]
                    .try_into()
                    .expect("slot width");
                let Some(cw) = Codeword::from_bytes(slot) else {
                    continue;
                };
                let roff = l.record_offset(i);
                let rec = &mut page[roff..roff + l.record_size()];
                match check_chunk(rec, cw) {
                    EccOutcome::Clean => {}
                    EccOutcome::Corrected { .. } => corrected += 1,
                    EccOutcome::Uncorrectable => return Err(UncorrectableError),
                }
            }
        }
        Ok(VerifyOutcome {
            corrected_bits: corrected,
        })
    }
}

/// Assemble the chunk straddling the delta-record gap: `page[head]`
/// followed by `page[tail]`, as `(buffer, length)`.
fn gather(page: &[u8], head: &Range<usize>, tail: &Range<usize>) -> ([u8; CHUNK], usize) {
    let mut buf = [0u8; CHUNK];
    let len = head.len() + tail.len();
    buf[..head.len()].copy_from_slice(&page[head.clone()]);
    buf[head.len()..len].copy_from_slice(&page[tail.clone()]);
    (buf, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::{write_record_into, DeltaRecord, NmScheme};
    use ipa_flash::ecc::encode_region;

    fn layout() -> PageLayout {
        PageLayout::new(2048, 24, 8, NmScheme::new(2, 4))
    }

    fn codec() -> OobCodec {
        OobCodec::new(2048, 64, Some(layout()))
    }

    fn sample_page(l: &PageLayout) -> Vec<u8> {
        let mut p: Vec<u8> = (0..l.page_size).map(|i| (i % 251) as u8).collect();
        l.wipe_delta_area(&mut p);
        p
    }

    /// The TPC-B page format: 8 KiB, 32 B header, 8 B footer, [2×4].
    fn tpcb_layout() -> PageLayout {
        PageLayout::new(8192, 32, 8, NmScheme::new(2, 4))
    }

    /// The construction `encode_oob` replaced: concatenate the two sides
    /// of the delta-record gap, then `encode_region` the copy.
    fn encode_oob_ref(c: &OobCodec, page: &[u8]) -> Vec<u8> {
        let region = match c.layout() {
            Some(l) => {
                let r = l.delta_area_range();
                [&page[..r.start], &page[r.end..]].concat()
            }
            None => page.to_vec(),
        };
        let mut oob = vec![0xFFu8; c.oob_size];
        for (i, cw) in encode_region(&region).into_iter().enumerate() {
            oob[i * CODEWORD_BYTES..][..CODEWORD_BYTES].copy_from_slice(&cw.to_bytes());
        }
        if let Some(l) = c.layout() {
            for i in 0..l.scheme.n {
                let slot = c.record_slice(page, i);
                if slot[0] != 0xFF {
                    let off = c.record_oob_offset(i);
                    oob[off..][..CODEWORD_BYTES].copy_from_slice(&c.encode_record(slot));
                }
            }
        }
        oob
    }

    #[test]
    fn encode_oob_equals_concatenate_then_encode_region() {
        let codecs = [
            OobCodec::new(8192, 128, Some(tpcb_layout())),
            codec(),
            OobCodec::new(2048, 64, None),
            // No footer: the gap ends the page, no chunk straddles it.
            OobCodec::new(
                2048,
                64,
                Some(PageLayout::new(2048, 24, 0, NmScheme::new(2, 4))),
            ),
            // Gap starting on a chunk boundary (2048 - 8 - 8·63 = 1536).
            OobCodec::new(
                2048,
                64,
                Some(PageLayout::new(2048, 24, 8, NmScheme::new(8, 10))),
            ),
        ];
        assert_eq!(codecs[4].layout().unwrap().delta_area_offset(), 3 * CHUNK);
        for c in &codecs {
            let mut page: Vec<u8> = (0..c.page_size).map(|i| (i * 31 % 253) as u8).collect();
            assert_eq!(c.encode_oob(&page), encode_oob_ref(c, &page), "{c:?}");
            if let Some(l) = c.layout() {
                // An erased delta area, then one with a record present.
                l.wipe_delta_area(&mut page);
                assert_eq!(c.encode_oob(&page), encode_oob_ref(c, &page), "{c:?}");
                let rec = DeltaRecord::new(vec![(40, 0x77)], vec![3; l.meta_len()], l.scheme);
                write_record_into(&mut page, l, 0, &rec);
                assert_eq!(c.encode_oob(&page), encode_oob_ref(c, &page), "{c:?}");
            }
            let oob = c.encode_oob(&page);
            assert_eq!(c.verify(&mut page, &oob).unwrap().corrected_bits, 0);
        }
    }

    #[test]
    fn flips_around_the_gap_are_corrected_at_their_page_offset() {
        // The chunk straddling the delta-record gap is checked in a
        // scratch buffer: a correction there must land on the right *page*
        // byte — before the gap, right after it, and at the footer's end.
        for (l, oob_size) in [(tpcb_layout(), 128), (layout(), 64)] {
            let c = OobCodec::new(l.page_size, oob_size, Some(l));
            let clean = sample_page(&l);
            let oob = c.encode_oob(&clean);
            let gap = l.delta_area_range();
            for at in [gap.start - 1, gap.end, l.page_size - 1] {
                for bit in [0x01u8, 0x80] {
                    let mut page = clean.clone();
                    page[at] ^= bit;
                    let out = c.verify(&mut page, &oob).unwrap();
                    assert_eq!(out.corrected_bits, 1, "byte {at}");
                    assert_eq!(page, clean, "byte {at} not repaired in place");
                }
            }
        }
    }

    #[test]
    fn repairs_before_an_uncorrectable_chunk_stay_in_the_page() {
        // The documented error-path behaviour of in-place verify.
        let l = layout();
        let c = codec();
        let clean = sample_page(&l);
        let oob = c.encode_oob(&clean);
        let mut page = clean.clone();
        page[7] ^= 0x10; // chunk 0: single flip
        page[2 * CHUNK + 3] ^= 0x01; // chunk 2: double flip
        page[2 * CHUNK + 9] ^= 0x04;
        assert_eq!(c.verify(&mut page, &oob), Err(UncorrectableError));
        assert_eq!(page[..CHUNK], clean[..CHUNK], "chunk 0 restored");
        let mut expected = clean.clone();
        expected[2 * CHUNK + 3] ^= 0x01;
        expected[2 * CHUNK + 9] ^= 0x04;
        assert_eq!(page, expected, "chunk 2 untouched, nothing else moved");
    }

    #[test]
    fn clean_page_verifies() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 0);
    }

    #[test]
    fn corrects_body_flip() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let original = page.clone();
        page[100] ^= 0x40;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
        assert_eq!(page, original);
    }

    #[test]
    fn detects_double_flip_in_one_chunk() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        page[10] ^= 1;
        page[11] ^= 1;
        assert!(c.verify(&mut page, &oob).is_err());
    }

    #[test]
    fn record_append_round_trip() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let mut oob = c.encode_oob(&page);

        // Append record 0 the way write_delta would.
        let rec = DeltaRecord::new(vec![(30, 0x77)], vec![1; l.meta_len()], l.scheme);
        write_record_into(&mut page, &l, 0, &rec);
        let roff = l.record_offset(0);
        let cw = c.encode_record(&page[roff..roff + l.record_size()]);
        let ooff = c.record_oob_offset(0);
        oob[ooff..ooff + CODEWORD_BYTES].copy_from_slice(&cw);

        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 0);

        // Flip one bit inside the record: corrected independently.
        let original = page.clone();
        page[roff + 2] ^= 0x08;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
        assert_eq!(page, original);
    }

    #[test]
    fn disturbed_control_byte_without_oob_marker_is_ignored() {
        // A 1→0 disturb flip can make an erased control byte (0xFF) look
        // "present" (bit 7 cleared). The OOB marker is the authority: no
        // codeword ⇒ slot not verified, and decode-side sanity checks
        // reject the garbage.
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let roff = l.record_offset(0);
        page[roff] &= 0x7F; // disturb: control byte bit 7 → 0
                            // Initial region does not cover the delta area, so verify passes.
        assert!(c.verify(&mut page, &oob).is_ok());
    }

    #[test]
    fn plain_codec_covers_whole_page() {
        let c = OobCodec::new(2048, 64, None);
        let mut page: Vec<u8> = (0..2048).map(|i| (i % 7) as u8).collect();
        let oob = c.encode_oob(&page);
        page[2000] ^= 2;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
    }

    #[test]
    fn erased_initial_codeword_is_data_loss() {
        let c = OobCodec::new(2048, 64, None);
        let mut page = vec![0u8; 2048];
        let oob = vec![0xFFu8; 64];
        assert!(c.verify(&mut page, &oob).is_err());
    }

    #[test]
    #[should_panic(expected = "OOB too small")]
    fn oversubscribed_oob_rejected() {
        // 2048-byte page → 4 initial codewords (16 B) + 16 records (64 B)
        // = 80 B > 32 B.
        let l = PageLayout::new(2048, 24, 8, NmScheme::new(16, 4));
        let _ = OobCodec::new(2048, 32, Some(l));
    }

    #[test]
    fn record_oob_offsets_follow_initial_codewords() {
        let c = codec();
        // 2048 - 90 = 1958 bytes → 4 codewords → records start at 16.
        assert_eq!(c.record_oob_offset(0), 16);
        assert_eq!(c.record_oob_offset(1), 20);
    }
}
