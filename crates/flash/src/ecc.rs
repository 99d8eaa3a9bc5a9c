//! SECDED error-correcting code for page data and delta records.
//!
//! Real MLC controllers use BCH/LDPC; for the simulator a single-error-
//! correcting, double-error-detecting (SECDED) code per chunk is sufficient
//! because the interference model injects sparse bit flips. The code is the
//! classic "XOR of set-bit positions" construction:
//!
//! * `locator` — XOR of `(bit_position + 1)` over all 1-bits. A single
//!   flipped bit at position `p` changes the locator by exactly `p + 1`,
//!   which both detects and locates it.
//! * `parity` — overall bit parity, which disambiguates single (correct)
//!   from double (detect-only) errors.
//!
//! Codewords are 4 bytes per chunk (`CHUNK = 512` data bytes), matching the
//! paper's Figure 3 OOB budget: an 8 KB page body needs 64 B for
//! `ECC_initial`, leaving room in a 128 B OOB for per-delta-record
//! codewords (`ECC_delta_rec 1..N`, one 4 B codeword each, delta records
//! being far smaller than a chunk).
//!
//! # The bit-sliced kernel
//!
//! [`encode_chunk`] never visits a bit. Bit `k` of an XOR of numbers is the
//! parity of how many of them have bit `k` set, so locator bit `k` is the
//! parity of the set data bits whose `q = pos + 1` has bit `k` set — a
//! popcount under a mask, not a walk. The masks are regular in `q`, not in
//! `pos`: were the chunk (64 little-endian `u64` words `D[0..64]`) shifted
//! left by one bit into words `B[W] = D[W] << 1 | top(D[W−1])` (`top` =
//! bit 63, `D[−1] = 0`), data bit `pos` would sit at bit `j` of word `W`
//! with `q = 64·W + j`, and the lone `q = 4096` would be `top(D[63])`. The
//! kernel computes what that shift would give without performing it — a
//! pass that only re-aligns bytes is a pass over the page too many — by
//! folding the *raw* words by halves. For `m = 5 … 0`, `n = 2^m`, over the
//! `2n` live slots (initially `slot = D`):
//!
//! * `hi_m` = XOR of slots `n..2n` — the words whose index has bit `m`
//!   set (`S_m`), because entering the level slot `i` holds the XOR of
//!   the words `W ≡ i (mod 2n)`;
//! * `slot[i] ^= slot[i + n]` for `i < n`;
//! * `E_m = slot[n − 1]` after that fold: the XOR of the words
//!   `D[j·n − 1]`, each the word just below (`j` odd) or the last word of
//!   (`j` even) a run of `S_m`. `all = E_0` is the XOR of every word.
//!
//! Then
//!
//! * locator bit `6 + m` (bit `m` of `W`) = `parity(hi_m) ^ top(E_m)`.
//!   The shifted words would give `XOR_{W∈S_m} B[W] = (hi_m << 1) | t_m`
//!   with `t_m = top(XOR_{V∈S_m−1} D[V])`. Moving every run of `S_m` down
//!   by one swaps the run's last word for the word below the run, so
//!   `XOR_{V∈S_m−1} D[V] = hi_m ^ E_m`, and `parity((hi_m << 1) | t_m) =
//!   parity(hi_m) ^ top(hi_m) ^ top(hi_m ^ E_m)`: the `top(hi_m)` shifted
//!   out and the one carried in cancel;
//! * locator bit `k < 6` (bit `k` of `j`) = `parity((all << 1) & M_k)` with
//!   the alternating masks `M_k` = `0xAAAA…`, `0xCCCC…`, `0xF0F0…`,
//!   `0xFF00…`, `0xFFFF0000…`, `0xFFFFFFFF00000000`. Every mask has bit 0
//!   clear, so the bit the shift would carry into `j = 0` is never seen;
//! * locator bit 12 = `top(D[63])`, and `parity = parity(all)` — a shift
//!   moves bits, it does not change how many are set.
//!
//! ~130 word XORs and 13 parities per chunk whatever the data's density,
//! one read of the chunk.
//!
//! # Two kernels, one dispatch point
//!
//! The fold is written twice, and only the fold; both kernels end in the
//! same `fold_last_levels`.
//!
//! * `encode_full` is the portable kernel. Built for baseline x86-64
//!   (SSE2, no POPCNT), its fold runs two words wide and each parity is a
//!   SWAR popcount.
//! * `avx2::encode_full` exists only on `x86_64` and is compiled with
//!   `#[target_feature(enable = "avx2,popcnt")]`: it folds four words per
//!   256-bit XOR and takes each parity from one `POPCNT`.
//!
//! [`encode_chunk`] picks the kernel at run time, for full chunks and
//! zero-padded short ones alike: the vector one when
//! `is_x86_feature_detected!` reports AVX2 and POPCNT, the portable one
//! otherwise. [`check_chunk`], the region helpers and every OOB codeword
//! above them go through it; nothing is chosen at build time. Both
//! kernels give the same codeword, bit for bit. The per-bit definition
//! survives as the test oracle `encode_chunk_ref`, and every oracle test
//! runs each kernel the host can run, not only the selected one. A change
//! to a kernel is shown equal to it before it is shown fast.

use serde::{Deserialize, Serialize};

/// Data bytes covered by one codeword.
pub const CHUNK: usize = 512;

/// Encoded size of one codeword in the OOB area.
pub const CODEWORD_BYTES: usize = 4;

/// One SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Codeword {
    /// XOR of `(bit index + 1)` over all set bits of the chunk.
    pub locator: u16,
    /// Overall parity (number of set bits mod 2).
    pub parity: u8,
}

impl Codeword {
    /// Serialize to the on-flash OOB representation.
    ///
    /// An all-`0xFF` slot means "not yet written" on flash. The locator and
    /// parity are stored bit-inverted, and byte 3 is a marker, `0x00` when
    /// the codeword is present: inverted bytes 0–2 alone would read all
    /// `0xFF` for a chunk whose locator and parity are both zero (all-zero
    /// data), so the marker is what tells a written slot from an erased
    /// one. Programming only clears bits, so any codeword can be written
    /// into an erased slot.
    pub fn to_bytes(self) -> [u8; CODEWORD_BYTES] {
        [
            !(self.locator as u8),
            !((self.locator >> 8) as u8),
            !self.parity,
            0x00,
        ]
    }

    /// Parse a codeword slot; `None` if the slot is still erased.
    pub fn from_bytes(b: &[u8; CODEWORD_BYTES]) -> Option<Codeword> {
        if b == &[0xFF; CODEWORD_BYTES] {
            return None;
        }
        Some(Codeword {
            locator: (!b[0] as u16) | ((!b[1] as u16) << 8),
            parity: !b[2] & 1,
        })
    }
}

/// Result of a check-and-correct pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Data matched the codeword.
    Clean,
    /// A single-bit error was found and corrected in place; the payload is
    /// the corrected bit's absolute position within the checked region.
    Corrected { bit: usize },
    /// More errors than the code can correct.
    Uncorrectable,
}

/// `u64` words per chunk.
const WORDS: usize = CHUNK / 8;

/// Word-bit masks selecting the positions whose index has bit `k` set.
const BIT_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

#[inline]
fn parity64(x: u64) -> u16 {
    (x.count_ones() & 1) as u16
}

/// Compute the codeword for up to [`CHUNK`] bytes of data.
///
/// Panics if `data` is longer than a chunk — callers split pages into
/// chunks with [`encode_region`].
pub fn encode_chunk(data: &[u8]) -> Codeword {
    encode_padded(data, encode_selected)
}

/// Run `kernel` on `data` zero-padded to a full chunk.
#[inline(always)]
fn encode_padded(data: &[u8], kernel: impl Fn(&[u8; CHUNK]) -> Codeword) -> Codeword {
    assert!(data.len() <= CHUNK, "chunk too large: {}", data.len());
    match <&[u8; CHUNK]>::try_from(data) {
        Ok(full) => kernel(full),
        Err(_) => {
            // Zero padding adds no set bits, so the codeword is unchanged.
            let mut padded = [0u8; CHUNK];
            padded[..data.len()].copy_from_slice(data);
            kernel(&padded)
        }
    }
}

/// The one dispatch point: the vector kernel where the CPU can run it,
/// the portable one otherwise.
#[inline]
fn encode_selected(data: &[u8; CHUNK]) -> Codeword {
    #[cfg(target_arch = "x86_64")]
    if avx2::detected() {
        // SAFETY: `detected` has just confirmed that this CPU has AVX2 and
        // POPCNT, the features `avx2::encode_full` is compiled for.
        return unsafe { avx2::encode_full(data) };
    }
    encode_full(data)
}

/// The portable bit-sliced kernel (module docs): branch-free,
/// density-independent, one pass over the chunk.
fn encode_full(data: &[u8; CHUNK]) -> Codeword {
    let mut d = [0u64; WORDS];
    for (d, bytes) in d.iter_mut().zip(data.chunks_exact(8)) {
        *d = u64::from_le_bytes(bytes.try_into().expect("8-byte word"));
    }
    // Bit `pos = 4095` is the lone `q = 4096`.
    let mut locator = ((d[WORDS - 1] >> 63) as u16) << 12;
    // Fold by halves, levels 5 … 2: entering level `m` (`n = 2^m`), slot
    // `i` of the first `2n` holds the XOR of the words `W ≡ i (mod 2n)`, so
    // the upper half is exactly the words with index bit `m` set; after the
    // fold, slot `n − 1` is `E_m`, the XOR of the words below a multiple
    // of `n`.
    let mut n = WORDS;
    for m in (2..6).rev() {
        n /= 2;
        let (lo, hi) = d[..2 * n].split_at_mut(n);
        let mut hi_m = 0u64;
        for (l, h) in lo.iter_mut().zip(hi.iter()) {
            hi_m ^= *h;
            *l ^= *h;
        }
        locator |= (parity64(hi_m) ^ (lo[n - 1] >> 63) as u16) << (6 + m);
    }
    fold_last_levels(locator, [d[0], d[1], d[2], d[3]])
}

/// Levels 1 and 0 of the fold and the in-word locator bits, shared by
/// both kernels: `s` is the four slots entering level 1, `locator` holds
/// the bits the wider levels set.
#[inline(always)]
fn fold_last_levels(mut locator: u16, s: [u64; 4]) -> Codeword {
    let (s0, s1) = (s[0] ^ s[2], s[1] ^ s[3]);
    locator |= (parity64(s[2] ^ s[3]) ^ (s1 >> 63) as u16) << 7;
    let all = s0 ^ s1;
    locator |= (parity64(s1) ^ (all >> 63) as u16) << 6;
    for (k, mask) in BIT_MASKS.iter().enumerate() {
        locator |= parity64((all << 1) & mask) << k;
    }
    Codeword {
        locator,
        parity: parity64(all) as u8,
    }
}

/// The AVX2 + POPCNT kernel: the portable fold, four words wide.
///
/// The chunk is 16 vectors `V[j] = D[4j..4j + 4]`. Levels 5 … 2 fold whole
/// vectors; `hi_m` is reduced to one word by XOR-ing its lanes together,
/// which keeps its parity, and `E_m` is lane 3 of the vector that holds
/// slot `n − 1`. Levels 1 and 0 are `fold_last_levels` on the lanes of
/// `V[0]`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{fold_last_levels, parity64, Codeword, CHUNK};
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_si128, _mm256_extract_epi64, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_setzero_si256, _mm256_xor_si256, _mm_cvtsi128_si64,
        _mm_extract_epi64, _mm_xor_si128,
    };

    /// 256-bit vectors per chunk.
    const VECTORS: usize = CHUNK / 32;

    /// Whether this CPU can run [`encode_full`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }

    /// # Safety
    ///
    /// The CPU must have AVX2 and POPCNT, as [`detected`] reports.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn encode_full(data: &[u8; CHUNK]) -> Codeword {
        let base = data.as_ptr().cast::<__m256i>();
        // SAFETY: `data` is `VECTORS` × 32 readable bytes, and `loadu`
        // takes any alignment.
        let mut v: [__m256i; VECTORS] =
            std::array::from_fn(|j| unsafe { _mm256_loadu_si256(base.add(j)) });
        let mut locator = top_of_lane3(v[VECTORS - 1]) << 12;
        let mut n = VECTORS;
        for m in (2..6).rev() {
            n /= 2;
            let mut hi_m = _mm256_setzero_si256();
            for i in 0..n {
                hi_m = _mm256_xor_si256(hi_m, v[n + i]);
                v[i] = _mm256_xor_si256(v[i], v[n + i]);
            }
            locator |= (parity64(lanes_xor(hi_m)) ^ top_of_lane3(v[n - 1])) << (6 + m);
        }
        let s = v[0];
        let lanes = [
            _mm256_extract_epi64::<0>(s),
            _mm256_extract_epi64::<1>(s),
            _mm256_extract_epi64::<2>(s),
            _mm256_extract_epi64::<3>(s),
        ];
        fold_last_levels(locator, lanes.map(|w| w as u64))
    }

    /// The XOR of a vector's four lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes_xor(v: __m256i) -> u64 {
        let x = _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        (_mm_cvtsi128_si64(x) ^ _mm_extract_epi64::<1>(x)) as u64
    }

    /// Bit 63 of lane 3: the top bit of the highest word.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn top_of_lane3(v: __m256i) -> u16 {
        (_mm256_extract_epi64::<3>(v) as u64 >> 63) as u16
    }
}

/// Check one chunk against its codeword, correcting a single-bit error in
/// place if possible.
pub fn check_chunk(data: &mut [u8], expected: Codeword) -> EccOutcome {
    check_with(data, expected, encode_chunk)
}

/// [`check_chunk`] over a given encoder, so each kernel's correction can
/// be tested.
#[inline(always)]
fn check_with(
    data: &mut [u8],
    expected: Codeword,
    encode: impl Fn(&[u8]) -> Codeword,
) -> EccOutcome {
    let actual = encode(data);
    if actual == expected {
        return EccOutcome::Clean;
    }
    let delta = actual.locator ^ expected.locator;
    let parity_differs = actual.parity != expected.parity;
    if parity_differs && delta != 0 {
        // Single-bit error at position delta - 1.
        let pos = (delta - 1) as usize;
        let (byte, bit) = (pos / 8, pos % 8);
        if byte >= data.len() {
            return EccOutcome::Uncorrectable;
        }
        data[byte] ^= 1 << bit;
        // Verify the correction actually reconciles the codeword (a 3-bit
        // error can masquerade as a single-bit one at a bogus position).
        if encode(data) == expected {
            EccOutcome::Corrected { bit: pos }
        } else {
            data[byte] ^= 1 << bit; // undo
            EccOutcome::Uncorrectable
        }
    } else {
        // Same parity but different locator => even number of flips >= 2.
        // Different parity but zero locator delta => >= 3 flips.
        EccOutcome::Uncorrectable
    }
}

/// Number of codewords needed to cover `len` bytes.
#[inline]
pub fn codewords_for(len: usize) -> usize {
    len.div_ceil(CHUNK)
}

/// Encode a whole region chunk-by-chunk.
pub fn encode_region(data: &[u8]) -> Vec<Codeword> {
    data.chunks(CHUNK).map(encode_chunk).collect()
}

/// Check (and correct in place) a whole region against its codewords.
///
/// Returns the total number of corrected bits, or `Err(chunk_index)` for the
/// first uncorrectable chunk.
pub fn check_region(data: &mut [u8], codewords: &[Codeword]) -> Result<usize, usize> {
    assert_eq!(
        codewords.len(),
        codewords_for(data.len()),
        "codeword count mismatch"
    );
    let mut corrected = 0usize;
    for (i, (chunk, &cw)) in data.chunks_mut(CHUNK).zip(codewords).enumerate() {
        match check_chunk(chunk, cw) {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { .. } => corrected += 1,
            EccOutcome::Uncorrectable => return Err(i),
        }
    }
    Ok(corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bit definition of the code — the oracle the bit-sliced
    /// kernel must equal: walk the set bits, XOR `pos + 1` per bit.
    fn encode_chunk_ref(data: &[u8]) -> Codeword {
        assert!(data.len() <= CHUNK, "chunk too large: {}", data.len());
        let mut locator: u16 = 0;
        let mut ones: u32 = 0;
        for (byte_idx, &b) in data.iter().enumerate() {
            ones += b.count_ones();
            let mut bits = b;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                let pos = byte_idx * 8 + bit;
                locator ^= (pos + 1) as u16;
                bits &= bits - 1;
            }
        }
        Codeword {
            locator,
            parity: (ones & 1) as u8,
        }
    }

    type Kernel = fn(&[u8; CHUNK]) -> Codeword;

    /// Every kernel this host can run, by name, with the one
    /// [`encode_chunk`] selects last: the oracle tests pin each of them,
    /// not only that one.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", encode_full)];
        #[cfg(target_arch = "x86_64")]
        if avx2::detected() {
            all.push(("avx2+popcnt", avx2_kernel));
        }
        all
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2_kernel(data: &[u8; CHUNK]) -> Codeword {
        assert!(avx2::detected(), "AVX2 kernel listed on a CPU without it");
        // SAFETY: the assert above confirmed AVX2 and POPCNT.
        unsafe { avx2::encode_full(data) }
    }

    /// `kernel` behind [`encode_chunk`]'s zero padding.
    fn encode_by(kernel: Kernel, data: &[u8]) -> Codeword {
        encode_padded(data, kernel)
    }

    #[test]
    fn reports_the_selected_kernel() {
        let all = kernels();
        let (name, selected) = *all.last().expect("the portable kernel is always listed");
        println!("ecc kernel: {name}");
        let data: Vec<u8> = (0..CHUNK).map(|i| (i * 131 % 251) as u8).collect();
        assert_eq!(encode_chunk(&data), encode_by(selected, &data));
    }

    #[test]
    fn kernel_equals_reference_on_every_single_set_bit() {
        // One set bit at `pos` must encode to exactly `pos + 1` — all 4 096
        // positions, so every mask, every fold level and the carry are hit.
        for (name, kernel) in kernels() {
            let mut data = [0u8; CHUNK];
            for pos in 0..CHUNK * 8 {
                data[pos / 8] = 1 << (pos % 8);
                let cw = kernel(&data);
                assert_eq!(cw, encode_chunk_ref(&data), "{name}: bit {pos}");
                assert_eq!(
                    (cw.locator, cw.parity),
                    (pos as u16 + 1, 1),
                    "{name}: bit {pos}"
                );
                data[pos / 8] = 0;
            }
        }
    }

    #[test]
    fn kernel_equals_reference_on_fills_and_edge_lengths() {
        for (name, kernel) in kernels() {
            for fill in [0x00u8, 0xFF, 0x80, 0x01] {
                for len in [0usize, 1, 7, 8, 9, 45, 511, 512] {
                    let data = vec![fill; len];
                    assert_eq!(
                        encode_by(kernel, &data),
                        encode_chunk_ref(&data),
                        "{name}: fill {fill:#04x}, len {len}"
                    );
                }
            }
        }
    }

    /// The terms the shift-free derivation adds: bit 63 of the words
    /// `j·2^m − 1` (each level's `E_m` — level 0 names every word) and of
    /// word 63 (the `q = 4096` carry), set singly and in pairs.
    #[test]
    fn run_boundary_top_bits() {
        let top = |data: &mut [u8; CHUNK], w: usize| data[8 * w + 7] ^= 0x80;
        for (name, kernel) in kernels() {
            for a in 0..WORDS {
                let mut data = [0u8; CHUNK];
                top(&mut data, a);
                assert_eq!(kernel(&data), encode_chunk_ref(&data), "{name}: word {a}");
                for b in a + 1..WORDS {
                    top(&mut data, b);
                    assert_eq!(
                        kernel(&data),
                        encode_chunk_ref(&data),
                        "{name}: words {a} and {b}"
                    );
                    top(&mut data, b);
                }
            }
        }
    }

    /// Delta records are far shorter than a chunk and reach the kernel
    /// through [`encode_chunk`]'s zero padding.
    #[test]
    fn short_chunks_through_padding() {
        for (name, kernel) in kernels() {
            for len in [1usize, 4, 13, 24, 45, 46, 64, 100, 255] {
                for fill in [0xFFu8, 0x80, 0x7F] {
                    let data = vec![fill; len];
                    assert_eq!(
                        encode_by(kernel, &data),
                        encode_chunk_ref(&data),
                        "{name}: fill {fill:#04x}, len {len}"
                    );
                }
                let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8 | 0x80).collect();
                assert_eq!(
                    encode_by(kernel, &data),
                    encode_chunk_ref(&data),
                    "{name}: len {len}"
                );
                // The last byte's top bit is the record's highest position.
                let mut one = vec![0u8; len];
                one[len - 1] = 0x80;
                let cw = encode_by(kernel, &one);
                assert_eq!(
                    (cw.locator, cw.parity),
                    (len as u16 * 8, 1),
                    "{name}: len {len}"
                );
            }
        }
    }

    #[test]
    fn clean_round_trip() {
        let mut data = vec![0xA5u8; 300];
        let cw = encode_chunk(&data);
        assert_eq!(check_chunk(&mut data, cw), EccOutcome::Clean);
    }

    #[test]
    fn corrects_single_bit_flip() {
        for (name, kernel) in kernels() {
            let original: Vec<u8> = (0..CHUNK).map(|i| (i * 7) as u8).collect();
            let cw = encode_by(kernel, &original);
            let mut data = original.clone();
            data[123] ^= 0x10;
            let outcome = check_with(&mut data, cw, |d| encode_by(kernel, d));
            assert_eq!(
                outcome,
                EccOutcome::Corrected { bit: 123 * 8 + 4 },
                "{name}"
            );
            assert_eq!(data, original, "{name}");
        }
    }

    #[test]
    fn detects_double_bit_flip() {
        let mut data = vec![0x3Cu8; 64];
        let cw = encode_chunk(&data);
        data[1] ^= 0x01;
        data[2] ^= 0x01;
        assert_eq!(check_chunk(&mut data, cw), EccOutcome::Uncorrectable);
    }

    #[test]
    fn erased_codeword_slot_is_none() {
        assert_eq!(Codeword::from_bytes(&[0xFF; 4]), None);
    }

    #[test]
    fn codeword_bytes_round_trip() {
        let cw = Codeword {
            locator: 0xBEEF,
            parity: 1,
        };
        let b = cw.to_bytes();
        assert_eq!(Codeword::from_bytes(&b), Some(cw));
    }

    #[test]
    fn codeword_of_all_0xff_data_is_storable() {
        // Data of all 1-bits must still produce a codeword distinguishable
        // from an erased slot.
        let data = vec![0xFFu8; CHUNK];
        let cw = encode_chunk(&data);
        assert!(Codeword::from_bytes(&cw.to_bytes()).is_some());
    }

    #[test]
    fn region_helpers() {
        let mut data = vec![0u8; 8192];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        assert_eq!(codewords_for(8192), 16);
        let cws = encode_region(&data);
        assert_eq!(cws.len(), 16);
        data[5000] ^= 0x80;
        data[100] ^= 0x02;
        assert_eq!(check_region(&mut data, &cws), Ok(2));
    }

    #[test]
    fn region_uncorrectable_reports_chunk() {
        let mut data = vec![0x55u8; 1024];
        let cws = encode_region(&data);
        data[600] ^= 1;
        data[601] ^= 1;
        assert_eq!(check_region(&mut data, &cws), Err(1));
    }

    #[test]
    fn empty_region_is_trivially_clean() {
        let cws = encode_region(&[]);
        assert!(cws.is_empty());
        assert_eq!(check_region(&mut [], &cws), Ok(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each bit-sliced kernel ≡ per-bit reference, byte-identical
        /// codewords, on random, sparse (≤ 4 set bits) and dense (`0xFF`
        /// with ≤ 4 cleared bits) chunks — each at every length `0..=512`.
        #[test]
        fn kernel_equals_reference(
            random in proptest::collection::vec(any::<u8>(), CHUNK),
            bits in proptest::collection::vec(0usize..CHUNK * 8, 0..=4),
        ) {
            let mut sparse = vec![0x00u8; CHUNK];
            let mut dense = vec![0xFFu8; CHUNK];
            for &bit in &bits {
                sparse[bit / 8] |= 1 << (bit % 8);
                dense[bit / 8] &= !(1 << (bit % 8));
            }
            for (_, kernel) in kernels() {
                for len in 0..=CHUNK {
                    for data in [&random, &sparse, &dense] {
                        let data = &data[..len];
                        prop_assert_eq!(encode_by(kernel, data), encode_chunk_ref(data));
                    }
                }
            }
        }
    }

    proptest! {
        /// encode → check round-trips clean for any region, and a single
        /// bit flip anywhere (any chunk, including a short tail chunk) is
        /// corrected back to the original bytes.
        #[test]
        fn region_corrects_any_single_flip(
            data in proptest::collection::vec(any::<u8>(), 1..3 * CHUNK),
            flip in any::<usize>(),
        ) {
            let cws = encode_region(&data);
            let mut clean = data.clone();
            prop_assert_eq!(check_region(&mut clean, &cws), Ok(0));
            prop_assert_eq!(&clean, &data);

            let mut corrupted = data.clone();
            let bit = flip % (data.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(check_region(&mut corrupted, &cws), Ok(1));
            prop_assert_eq!(corrupted, data);
        }

        /// A double flip inside one chunk is pinned to exactly that chunk
        /// index — never "corrected" into wrong data, never blamed on a
        /// neighbour.
        #[test]
        fn region_reports_the_corrupted_chunk(
            data in proptest::collection::vec(any::<u8>(), CHUNK + 1..4 * CHUNK),
            a in any::<usize>(),
            b in any::<usize>(),
            chunk_sel in any::<usize>(),
        ) {
            let cws = encode_region(&data);
            let chunk = chunk_sel % codewords_for(data.len());
            let start = chunk * CHUNK;
            let bits = (data.len() - start).min(CHUNK) * 8;
            let (pa, pb) = (a % bits, b % bits);
            prop_assume!(pa != pb);
            let mut corrupted = data.clone();
            corrupted[start + pa / 8] ^= 1 << (pa % 8);
            corrupted[start + pb / 8] ^= 1 << (pb % 8);
            prop_assert_eq!(check_region(&mut corrupted, &cws), Err(chunk));
        }

        /// Any single bit flip in any chunk is corrected back to the
        /// original data.
        #[test]
        fn corrects_any_single_flip(
            data in proptest::collection::vec(any::<u8>(), 1..CHUNK),
            flip in any::<usize>(),
        ) {
            let cw = encode_chunk(&data);
            let mut corrupted = data.clone();
            let pos = flip % (data.len() * 8);
            corrupted[pos / 8] ^= 1 << (pos % 8);
            let outcome = check_chunk(&mut corrupted, cw);
            prop_assert_eq!(outcome, EccOutcome::Corrected { bit: pos });
            prop_assert_eq!(corrupted, data);
        }

        /// Any two distinct bit flips are flagged uncorrectable — never
        /// silently "corrected" to wrong data.
        #[test]
        fn detects_any_double_flip(
            data in proptest::collection::vec(any::<u8>(), 1..CHUNK),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let bits = data.len() * 8;
            let (pa, pb) = (a % bits, b % bits);
            prop_assume!(pa != pb);
            let cw = encode_chunk(&data);
            let mut corrupted = data.clone();
            corrupted[pa / 8] ^= 1 << (pa % 8);
            corrupted[pb / 8] ^= 1 << (pb % 8);
            let outcome = check_chunk(&mut corrupted, cw);
            prop_assert_eq!(outcome, EccOutcome::Uncorrectable);
        }
    }
}
