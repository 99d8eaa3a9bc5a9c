//! TPC-B: the bank-transfer benchmark the paper's Table 1 runs.
//!
//! Schema (100-byte rows per the spec; cardinalities scaled down from
//! 100 000 accounts/branch so simulator runs stay minutes, not hours —
//! the reported metrics are ratios and scale-free):
//!
//! * `branch`   — 1 per scale unit
//! * `teller`   — 10 per branch
//! * `account`  — [`ACCOUNTS_PER_BRANCH`] per branch, B+-tree indexed
//! * `history`  — append-only 50-byte rows, in a *non-IPA* region (pure
//!   inserts; the paper applies IPA selectively via NoFTL regions)
//!
//! Each transaction updates one account, teller and branch balance
//! (`balance += Δ`, a sub-10-byte net change — Figure 1's whole premise)
//! and appends a history row.

use rand::rngs::StdRng;
use rand::Rng;

use ipa_storage::{Result, Rid, StorageEngine, TableId, TableSpec};

use crate::spec::{heap_pages, index_pages, Benchmark};
use crate::util::{get_i64, put_i64, put_u64, ZipfTable};

/// Accounts per branch (spec value 100 000; scaled for simulation but
/// kept far larger than the buffer pool so account pages actually evict).
pub const ACCOUNTS_PER_BRANCH: u64 = 10_000;
/// Tellers per branch (spec value).
pub const TELLERS_PER_BRANCH: u64 = 10;
/// Account/teller/branch row size (spec: 100 bytes).
pub const ROW_LEN: usize = 100;
/// History row size (spec: ~50 bytes).
pub const HISTORY_LEN: usize = 50;
/// Byte offset of the balance field in account/teller/branch rows.
pub const BALANCE_OFF: usize = 16;
/// Initial balance: large and positive so ±Δ updates never flip the sign
/// (a sign flip would rewrite all 8 bytes of the LE i64 and defeat the
/// byte-delta encoding — real deployments run large positive balances).
pub const INITIAL_BALANCE: i64 = 1 << 40;

/// TPC-B benchmark state.
pub struct TpcB {
    scale: u32,
    page_size: usize,
    headroom_tx: u64,
    accounts: Option<TableId>,
    tellers: Option<TableId>,
    branches: Option<TableId>,
    history: Option<TableId>,
    accounts_pk: Option<TableId>,
    teller_rids: Vec<Rid>,
    branch_rids: Vec<Rid>,
    history_full: bool,
    /// Zipf(θ) account-key sampler when the driver asks for skew.
    account_zipf: Option<ZipfTable>,
}

impl TpcB {
    pub fn new(scale: u32, page_size: usize) -> Self {
        Self::with_headroom(scale, page_size, 100_000)
    }

    /// `headroom_tx` bounds how many history rows (one per transaction)
    /// the append-only region is budgeted for.
    pub fn with_headroom(scale: u32, page_size: usize, headroom_tx: u64) -> Self {
        assert!(scale >= 1);
        TpcB {
            scale,
            page_size,
            headroom_tx,
            accounts: None,
            tellers: None,
            branches: None,
            history: None,
            accounts_pk: None,
            teller_rids: Vec::new(),
            branch_rids: Vec::new(),
            history_full: false,
            account_zipf: None,
        }
    }

    pub fn n_accounts(&self) -> u64 {
        self.scale as u64 * ACCOUNTS_PER_BRANCH
    }

    fn n_tellers(&self) -> u64 {
        self.scale as u64 * TELLERS_PER_BRANCH
    }

    fn row(id: u64, branch: u64, len: usize) -> Vec<u8> {
        let mut r = vec![0u8; len];
        put_u64(&mut r, 0, id);
        put_u64(&mut r, 8, branch);
        put_i64(&mut r, BALANCE_OFF, INITIAL_BALANCE);
        r
    }
}

impl Benchmark for TpcB {
    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn tables(&self) -> Vec<TableSpec> {
        let ps = self.page_size;
        // History grows ~1 row/tx; budget for the configured run length.
        let history_rows = self.headroom_tx.max(self.n_accounts());
        vec![
            TableSpec::heap(
                "account",
                ROW_LEN,
                heap_pages(self.n_accounts(), ROW_LEN, ps),
            ),
            TableSpec::heap("teller", ROW_LEN, heap_pages(self.n_tellers(), ROW_LEN, ps)),
            TableSpec::heap(
                "branch",
                ROW_LEN,
                heap_pages(self.scale as u64, ROW_LEN, ps),
            ),
            TableSpec::heap(
                "history",
                HISTORY_LEN,
                heap_pages(history_rows, HISTORY_LEN, ps),
            )
            .without_ipa(),
            TableSpec::index("account_pk", index_pages(self.n_accounts(), ps)),
        ]
    }

    fn load(&mut self, engine: &mut StorageEngine, _rng: &mut StdRng) -> Result<()> {
        let accounts = engine.table("account")?;
        let tellers = engine.table("teller")?;
        let branches = engine.table("branch")?;
        let history = engine.table("history")?;
        let accounts_pk = engine.table("account_pk")?;

        let tx = engine.begin();
        for b in 0..self.scale as u64 {
            self.branch_rids
                .push(engine.insert(tx, branches, &Self::row(b, b, ROW_LEN))?);
        }
        for t in 0..self.n_tellers() {
            let b = t / TELLERS_PER_BRANCH;
            self.teller_rids
                .push(engine.insert(tx, tellers, &Self::row(t, b, ROW_LEN))?);
        }
        for a in 0..self.n_accounts() {
            let b = a / ACCOUNTS_PER_BRANCH;
            let rid = engine.insert(tx, accounts, &Self::row(a, b, ROW_LEN))?;
            engine.index_insert(tx, accounts_pk, a, rid)?;
        }
        engine.commit(tx)?;
        engine.flush_all()?;

        self.accounts = Some(accounts);
        self.tellers = Some(tellers);
        self.branches = Some(branches);
        self.history = Some(history);
        self.accounts_pk = Some(accounts_pk);
        Ok(())
    }

    fn run_tx(&mut self, engine: &mut StorageEngine, rng: &mut StdRng) -> Result<()> {
        let accounts = self.accounts.expect("load first");
        let tellers = self.tellers.unwrap();
        let branches = self.branches.unwrap();
        let history = self.history.unwrap();
        let accounts_pk = self.accounts_pk.unwrap();

        let aid = match &self.account_zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..self.n_accounts()),
        };
        let tid = rng.gen_range(0..self.n_tellers());
        let bid = tid / TELLERS_PER_BRANCH;
        let delta: i64 = rng.gen_range(-99_999..=99_999);

        let tx = engine.begin();
        // Account: index lookup, read, balance update.
        let arid = engine
            .index_lookup(accounts_pk, aid)?
            .expect("loaded account");
        let row = engine.get(accounts, arid)?;
        let new_bal = get_i64(&row, BALANCE_OFF) + delta;
        let mut bytes = [0u8; 8];
        put_i64(&mut bytes, 0, new_bal);
        engine.update_field(tx, accounts, arid, BALANCE_OFF, &bytes)?;

        // Teller.
        let trid = self.teller_rids[tid as usize];
        let row = engine.get(tellers, trid)?;
        let mut bytes = [0u8; 8];
        put_i64(&mut bytes, 0, get_i64(&row, BALANCE_OFF) + delta);
        engine.update_field(tx, tellers, trid, BALANCE_OFF, &bytes)?;

        // Branch.
        let brid = self.branch_rids[bid as usize];
        let row = engine.get(branches, brid)?;
        let mut bytes = [0u8; 8];
        put_i64(&mut bytes, 0, get_i64(&row, BALANCE_OFF) + delta);
        engine.update_field(tx, branches, brid, BALANCE_OFF, &bytes)?;

        // History append (region capacity permitting; a full history is a
        // benchmark-duration artifact, not an error — from then on no row
        // is appended, so the transaction mix changes: updates only).
        if !self.history_full {
            let mut h = vec![0u8; HISTORY_LEN];
            put_u64(&mut h, 0, aid);
            put_u64(&mut h, 8, tid);
            put_u64(&mut h, 16, bid);
            put_i64(&mut h, 24, delta);
            match engine.insert(tx, history, &h) {
                Ok(_) => {}
                Err(ipa_storage::StorageError::TableFull(_)) => self.history_full = true,
                Err(e) => {
                    engine.abort(tx)?;
                    return Err(e);
                }
            }
        }
        engine.commit(tx)
    }

    fn set_key_skew(&mut self, theta: Option<f64>) {
        self.account_zipf = theta.map(|t| ZipfTable::new(self.n_accounts(), t));
    }

    fn read_fraction(&self) -> f64 {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::NmScheme;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_storage::EngineConfig;
    use rand::SeedableRng;

    fn engine(b: &TpcB, ipa: bool) -> StorageEngine {
        let dc = DeviceConfig::new(Geometry::new(512, 32, 2048, 64), FlashMode::PSlc)
            .with_disturb(DisturbRates::none());
        let cfg = if ipa {
            EngineConfig::default().with_ipa(NmScheme::new(2, 4))
        } else {
            EngineConfig::default()
        };
        StorageEngine::build(dc, cfg.with_buffer_frames(64), &b.tables()).unwrap()
    }

    #[test]
    fn load_and_run() {
        let mut b = TpcB::with_headroom(1, 2048, 2_000);
        let mut e = engine(&b, true);
        let mut rng = StdRng::seed_from_u64(1);
        b.load(&mut e, &mut rng).unwrap();
        for _ in 0..200 {
            b.run_tx(&mut e, &mut rng).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.committed, 201); // load tx + 200
        assert!(s.device.host_reads > 0);
    }

    #[test]
    fn balances_conserve_money() {
        // Sum of all account balances == sum of branch balances == sum of
        // teller balances (every delta hits one of each).
        let mut b = TpcB::with_headroom(1, 2048, 2_000);
        let mut e = engine(&b, true);
        let mut rng = StdRng::seed_from_u64(2);
        b.load(&mut e, &mut rng).unwrap();
        for _ in 0..150 {
            b.run_tx(&mut e, &mut rng).unwrap();
        }
        e.flush_all().unwrap();
        e.restart_clean().unwrap(); // force everything through flash

        let sum_table = |e: &mut StorageEngine, name: &str| -> i64 {
            let t = e.table(name).unwrap();
            let mut sum = 0i64;
            e.scan(t, |_, row| {
                sum += get_i64(row, BALANCE_OFF) - INITIAL_BALANCE
            })
            .unwrap();
            sum
        };
        let acc = sum_table(&mut e, "account");
        let tel = sum_table(&mut e, "teller");
        let bra = sum_table(&mut e, "branch");
        assert_eq!(acc, tel, "account vs teller totals");
        assert_eq!(tel, bra, "teller vs branch totals");
    }

    #[test]
    fn ipa_beats_traditional_on_invalidations() {
        let run = |ipa: bool| {
            let mut b = TpcB::with_headroom(1, 2048, 2_000);
            let mut e = engine(&b, ipa);
            let mut rng = StdRng::seed_from_u64(3);
            b.load(&mut e, &mut rng).unwrap();
            for _ in 0..400 {
                b.run_tx(&mut e, &mut rng).unwrap();
            }
            e.flush_all().unwrap();
            e.stats().device
        };
        let trad = run(false);
        let ipa = run(true);
        assert!(
            ipa.page_invalidations < trad.page_invalidations,
            "IPA {} vs traditional {}",
            ipa.page_invalidations,
            trad.page_invalidations
        );
        assert!(ipa.in_place_appends > 0);
    }
}
