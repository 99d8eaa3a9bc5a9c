//! Seeded operation streams and the engine-vs-model harness.
//!
//! [`ModelHarness`] drives a [`StorageEngine`] and an in-memory
//! `HashMap<Rid, Option<Vec<u8>>>` model in lockstep with a reproducible
//! random mix of inserts, small field updates, whole-row updates, deletes,
//! aborted updates and read-verifies — the operation distribution of the
//! root `model_check` suite. The harness is strategy-agnostic: the same
//! seed produces the same logical operation stream no matter which write
//! path the engine is configured with, which is what makes cross-strategy
//! equivalence checks meaningful.

use std::collections::{HashMap, HashSet};

use ipa_core::DeltaRecord;
use ipa_ftl::{BlockDevice, IoQueue, IoRequest, ShardedFtl, WriteStrategy};
use ipa_storage::{Rid, StorageEngine, StorageError, TableId, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::device_layout;

/// Row length used by the model harness (matches `fixtures::heap_engine`).
pub const ROW: usize = 48;

/// Engine + in-memory model driven in lockstep by a seeded op stream.
pub struct ModelHarness {
    rng: StdRng,
    /// `Some(row)` = live row with expected bytes; `None` = deleted.
    pub model: HashMap<Rid, Option<Vec<u8>>>,
    live: Vec<Rid>,
    label: String,
}

impl ModelHarness {
    pub fn new(seed: u64, label: impl Into<String>) -> Self {
        ModelHarness {
            rng: StdRng::seed_from_u64(seed),
            model: HashMap::new(),
            live: Vec::new(),
            label: label.into(),
        }
    }

    /// Apply `ops` random operations, flushing the pool every 50 steps so
    /// pages continuously round-trip through flash.
    pub fn run(&mut self, e: &mut StorageEngine, t: TableId, ops: usize) {
        for step in 0..ops {
            self.step(e, t, step);
            if step % 50 == 49 {
                e.flush_all().unwrap();
            }
        }
    }

    /// One random operation. The mix: 25 % insert, 45 % small field
    /// update, 10 % whole-row update, 5 % delete, 5 % aborted update,
    /// 10 % read-verify.
    pub fn step(&mut self, e: &mut StorageEngine, t: TableId, step: usize) {
        let label = &self.label;
        match self.rng.gen_range(0..100u32) {
            0..=24 => {
                let mut row = vec![0u8; ROW];
                self.rng.fill(&mut row[..]);
                let tx = e.begin();
                match e.insert(tx, t, &row) {
                    Ok(rid) => {
                        e.commit(tx).unwrap();
                        self.model.insert(rid, Some(row));
                        self.live.push(rid);
                    }
                    Err(StorageError::TableFull(_)) => {
                        e.commit(tx).unwrap();
                    }
                    Err(err) => panic!("{label} step {step}: insert: {err}"),
                }
            }
            25..=69 if !self.live.is_empty() => {
                let rid = self.live[self.rng.gen_range(0..self.live.len())];
                let off = self.rng.gen_range(0..ROW - 4);
                let bytes: [u8; 3] = self.rng.gen();
                let tx = e.begin();
                e.update_field(tx, t, rid, off, &bytes).unwrap();
                e.commit(tx).unwrap();
                let m = self.model.get_mut(&rid).unwrap().as_mut().unwrap();
                m[off..off + 3].copy_from_slice(&bytes);
            }
            70..=79 if !self.live.is_empty() => {
                let rid = self.live[self.rng.gen_range(0..self.live.len())];
                let mut row = vec![0u8; ROW];
                self.rng.fill(&mut row[..]);
                let tx = e.begin();
                e.update_row(tx, t, rid, &row).unwrap();
                e.commit(tx).unwrap();
                self.model.insert(rid, Some(row));
            }
            80..=84 if !self.live.is_empty() => {
                let idx = self.rng.gen_range(0..self.live.len());
                let rid = self.live.swap_remove(idx);
                let tx = e.begin();
                e.delete(tx, t, rid).unwrap();
                e.commit(tx).unwrap();
                self.model.insert(rid, None);
            }
            85..=89 if !self.live.is_empty() => {
                let rid = self.live[self.rng.gen_range(0..self.live.len())];
                let tx = e.begin();
                e.update_field(tx, t, rid, 0, &[0xAB, 0xCD]).unwrap();
                e.abort(tx).unwrap();
            }
            _ if !self.live.is_empty() => {
                let rid = self.live[self.rng.gen_range(0..self.live.len())];
                let got = e.get(t, rid).unwrap();
                assert_eq!(
                    &got,
                    self.model[&rid].as_ref().unwrap(),
                    "{label} step {step}: live read diverged"
                );
            }
            _ => {}
        }
    }

    /// Assert the engine agrees with the model byte-for-byte: every live
    /// row readable and identical, every deleted row gone. Call after
    /// `restart_clean()` to prove the state round-tripped through flash.
    pub fn assert_engine_matches(&self, e: &mut StorageEngine, t: TableId) {
        let label = &self.label;
        for (rid, expect) in &self.model {
            match expect {
                Some(row) => {
                    let got = e.get(t, *rid).unwrap();
                    assert_eq!(&got, row, "{label}: row {rid:?} diverged");
                }
                None => {
                    assert!(
                        e.get(t, *rid).is_err(),
                        "{label}: deleted row {rid:?} resurrected"
                    );
                }
            }
        }
    }

    /// The model's live rows in a canonical order, for comparing final
    /// logical state across independently-run engines.
    pub fn canonical_rows(&self) -> Vec<(Rid, Vec<u8>)> {
        let mut rows: Vec<(Rid, Vec<u8>)> = self
            .model
            .iter()
            .filter_map(|(rid, v)| v.as_ref().map(|row| (*rid, row.clone())))
            .collect();
        rows.sort();
        rows
    }
}

/// Hot LBA span of the queued walls — small enough that churn reaches GC
/// on the tiny [`crate::striped_device`] chips.
pub const QUEUED_SPAN: u64 = 40;

/// One host operation of the device-level parity walls (`queued_parity`,
/// `qos_parity`): the same seeded stream is driven through two devices —
/// or two interfaces of twin devices — that must end in the same state.
#[derive(Debug, Clone)]
pub enum QueuedOp {
    /// `n` consecutive full-page writes starting at `start`.
    WriteRun {
        start: u64,
        n: usize,
        fill: u8,
    },
    /// `n` consecutive reads starting at `start` (mapped members only).
    ReadRun {
        start: u64,
        n: usize,
    },
    /// A priority point read (the buffer-pool miss path) on a mapped LBA.
    PriorityRead(u64),
    /// One delta-record append (native strategy only).
    Delta {
        lba: u64,
        fill: u8,
    },
    Trim(u64),
    Flush,
}

impl QueuedOp {
    /// Weighted draw (writes > reads = priority reads = deltas > trims =
    /// flushes); priority reads are common enough that a QoS device keeps
    /// finding queued programs to jump.
    pub fn random(rng: &mut StdRng) -> QueuedOp {
        match rng.gen_range(0..12u32) {
            0..=3 => QueuedOp::WriteRun {
                start: rng.gen_range(0..QUEUED_SPAN),
                n: rng.gen_range(1..6),
                fill: rng.gen(),
            },
            4..=5 => QueuedOp::ReadRun {
                start: rng.gen_range(0..QUEUED_SPAN),
                n: rng.gen_range(1..6),
            },
            6..=7 => QueuedOp::PriorityRead(rng.gen_range(0..QUEUED_SPAN)),
            8..=9 => QueuedOp::Delta {
                lba: rng.gen_range(0..QUEUED_SPAN),
                fill: rng.gen(),
            },
            10 => QueuedOp::Trim(rng.gen_range(0..QUEUED_SPAN)),
            _ => QueuedOp::Flush,
        }
    }

    /// The `len`-op stream of `seed`.
    pub fn stream(seed: u64, len: usize) -> Vec<QueuedOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| QueuedOp::random(&mut rng)).collect()
    }
}

/// Tiny logical model the op-stream driver keeps: which LBAs are mapped,
/// how many delta slots each physical page has consumed, and each LBA's
/// write counter.
#[derive(Default)]
struct QueuedModel {
    mapped: HashSet<u64>,
    slots: HashMap<u64, u16>,
    versions: HashMap<u64, u64>,
}

impl QueuedModel {
    /// Register a full-page write; returns the LBA's new version stamp.
    fn apply_write(&mut self, lba: u64) -> u64 {
        self.mapped.insert(lba);
        self.slots.insert(lba, 0);
        let v = self.versions.entry(lba).or_insert(0);
        *v += 1;
        *v
    }

    /// Is a slot free for a delta append on `lba`?
    fn delta_slot(&self, lba: u64) -> Option<u16> {
        let slot = *self.slots.get(&lba)?;
        (self.mapped.contains(&lba) && slot < device_layout().scheme.n).then_some(slot)
    }
}

/// A strategy-appropriate full-page image: IPA paths keep the delta area
/// erased, exactly as the buffer pool's eviction path would. `version`
/// is the LBA's write counter; it stamps a rotating one-hot nonce so no
/// two successive images of an LBA are ever overwrite-compatible — the
/// pool never sends body-changing compatible images, and accidentally
/// compatible random fills would corrupt body ECC in ways the real
/// eviction path cannot.
fn queued_page(strategy: WriteStrategy, fill: u8, version: u64) -> Vec<u8> {
    let mut img = vec![fill; 2048];
    img[0] = 1 << (version % 8);
    if strategy.needs_layout() {
        device_layout().wipe_delta_area(&mut img);
    }
    img
}

/// Turn `ops` into host requests — one per op that has anything to do
/// under `strategy` and the model so far — hand each to `issue`, and
/// return every page `issue` read back, in order; ends with a `sync`.
/// The walls differ only in `issue`: how a request reaches the device.
pub fn run_ops(
    dev: &mut ShardedFtl,
    strategy: WriteStrategy,
    ops: &[QueuedOp],
    mut issue: impl FnMut(&mut ShardedFtl, IoRequest) -> Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let mut model = QueuedModel::default();
    let mut reads = Vec::new();
    let span = dev.capacity_pages().min(QUEUED_SPAN);
    for op in ops {
        let req = match op {
            QueuedOp::WriteRun { start, n, fill } => IoRequest::WriteV(
                (0..*n as u64)
                    .map(|i| {
                        let lba = (start + i) % span;
                        let version = model.apply_write(lba);
                        let fill = fill.wrapping_add(i as u8);
                        (lba, queued_page(strategy, fill, version))
                    })
                    .collect(),
            ),
            QueuedOp::ReadRun { start, n } => {
                let lbas: Vec<u64> = (0..*n as u64)
                    .map(|i| (start + i) % span)
                    .filter(|l| model.mapped.contains(l))
                    .collect();
                if lbas.is_empty() {
                    continue;
                }
                IoRequest::ReadV(lbas)
            }
            // What the sync `read` path submits: a priority read on a
            // QoS device, a plain front-of-queue read on a FIFO one.
            QueuedOp::PriorityRead(lba) if model.mapped.contains(&(lba % span)) => {
                IoRequest::HighPriorityReadV(vec![lba % span])
            }
            QueuedOp::PriorityRead(_) => continue,
            QueuedOp::Delta { lba, fill } => {
                let lba = lba % span;
                let slot = match model.delta_slot(lba) {
                    Some(slot) if strategy == WriteStrategy::IpaNative => slot,
                    _ => continue,
                };
                model.slots.insert(lba, slot + 1);
                let l = device_layout();
                let change = vec![(40, fill & 0x0F)];
                let rec = DeltaRecord::new(change, vec![1; l.meta_len()], l.scheme);
                IoRequest::WriteDeltaV(vec![(lba, l.record_offset(slot), rec.encode(&l))])
            }
            QueuedOp::Trim(lba) => {
                model.mapped.remove(&(lba % span));
                IoRequest::Trim(lba % span)
            }
            QueuedOp::Flush => IoRequest::Flush,
        };
        reads.extend(issue(dev, req));
    }
    IoQueue::sync(dev);
    reads
}

/// [`run_ops`] through the queued interface: every request submitted,
/// then polled before the next.
pub fn run_queued(dev: &mut ShardedFtl, strategy: WriteStrategy, ops: &[QueuedOp]) -> Vec<Vec<u8>> {
    run_ops(dev, strategy, ops, |dev, req| {
        let token = dev.submit(req).unwrap();
        let done = dev.poll_checked(token).unwrap();
        // The sync loop's `write_delta(..).unwrap()` fails on an in-place
        // rejection; the vector reports one per member instead.
        assert!(done.rejected.is_empty(), "rejected: {:?}", done.rejected);
        done.data
    })
}

/// Read back every LBA of the hot span on both devices: mapped ones must
/// agree byte for byte, unmapped ones must fail on both.
pub fn assert_same_final_state(a: &mut ShardedFtl, b: &mut ShardedFtl, label: &str) {
    let span = a.capacity_pages().min(QUEUED_SPAN);
    let mut page_a = vec![0u8; 2048];
    let mut page_b = vec![0u8; 2048];
    for lba in 0..span {
        match (a.read(lba, &mut page_a), b.read(lba, &mut page_b)) {
            (Ok(()), Ok(())) => assert_eq!(page_a, page_b, "{label}: lba {lba} diverged"),
            (Err(_), Err(_)) => {}
            (ra, rb) => panic!("{label}: lba {lba} mapped-ness diverged: {ra:?} vs {rb:?}"),
        }
    }
    a.check_invariants();
    b.check_invariants();
}

/// A synthetic OLTP-ish page trace: `pages` hot pages fetched (with two
/// read-ahead neighbours) and evicted with small deltas each round — the
/// shape both replay harnesses (`replay_ipa` / `replay_ipl`) consume.
pub fn synthetic_trace(pages: u64, rounds: u32) -> Vec<TraceEvent> {
    let mut t = Vec::new();
    for round in 0..rounds {
        for lba in 0..pages {
            t.push(TraceEvent::Fetch { lba });
            t.push(TraceEvent::Fetch {
                lba: (lba + 1) % pages,
            });
            t.push(TraceEvent::Fetch {
                lba: (lba + 2) % pages,
            });
            t.push(TraceEvent::Evict {
                lba,
                changed_bytes: 4 + (round % 3),
            });
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::heap_engine;
    use ipa_core::NmScheme;
    use ipa_ftl::WriteStrategy;

    #[test]
    fn same_seed_same_stream() {
        let mut ea = heap_engine(WriteStrategy::Traditional, NmScheme::disabled(), 1);
        let mut eb = heap_engine(WriteStrategy::Traditional, NmScheme::disabled(), 1);
        let ta = ea.table("m").unwrap();
        let tb = eb.table("m").unwrap();
        let mut ha = ModelHarness::new(99, "a");
        let mut hb = ModelHarness::new(99, "b");
        ha.run(&mut ea, ta, 150);
        hb.run(&mut eb, tb, 150);
        assert_eq!(ha.canonical_rows(), hb.canonical_rows());
    }

    #[test]
    fn harness_state_survives_restart() {
        let mut e = heap_engine(WriteStrategy::IpaNative, NmScheme::new(2, 4), 3);
        let t = e.table("m").unwrap();
        let mut h = ModelHarness::new(42, "restart");
        h.run(&mut e, t, 200);
        e.restart_clean().unwrap();
        h.assert_engine_matches(&mut e, t);
    }

    #[test]
    fn synthetic_trace_shape() {
        let t = synthetic_trace(8, 3);
        assert_eq!(t.len(), 8 * 3 * 4);
        let evictions = t
            .iter()
            .filter(|e| matches!(e, TraceEvent::Evict { .. }))
            .count();
        assert_eq!(evictions, 24);
    }
}
