//! The fleet: one owned device, N tenant engines, RAII lifecycle.

use std::cell::RefCell;
use std::rc::Rc;

use ipa_controller::{ControllerConfig, ControllerStats};
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, DeviceStats, FtlConfig, Region, RegionTable, ShardedFtl, StripePolicy};
use ipa_storage::{EngineConfig, RecoveryReport, Result, StorageEngine, TableSpec};

use crate::device::TenantDevice;

/// Page size of a fleet's shared device and of every tenant's WAL, bytes.
pub(crate) const PAGE_SIZE: usize = 2048;

/// The shared device's controller topology, `(channels, dies per
/// channel)`, one plane per die.
pub const TOPOLOGY: (u32, u32) = (4, 2);

/// NCQ queue cap on the shared controller, which also schedules with
/// latency QoS.
pub const QUEUE_CAP: usize = 4;

/// Buffer-pool frames per tenant engine.
const BUFFER_FRAMES: usize = 24;

/// Per-tenant WAL capacity in log pages. Checkpoints recycle sealed
/// stripes, so this bounds steady-state log space, not run length.
pub const WAL_PAGES: u64 = 192;

/// Per-tenant WAL stripe topology (`channels × dies`).
const WAL_STRIPE: (u32, u32) = (2, 1);

/// Builder for a [`Fleet`]: register the tenants, then
/// [`FleetBuilder::build`].
pub struct FleetBuilder {
    seed: u64,
    tenants: Vec<(String, Vec<TableSpec>)>,
}

impl FleetBuilder {
    /// A fleet whose shared device draws from `seed`.
    pub fn new(seed: u64) -> Self {
        FleetBuilder {
            seed,
            tenants: Vec::new(),
        }
    }

    /// Register a tenant with its schema. Tenants are laid out in
    /// registration order, each in its own contiguous LBA window.
    pub fn tenant(mut self, name: impl Into<String>, tables: Vec<TableSpec>) -> Self {
        self.tenants.push((name.into(), tables));
        self
    }

    /// Partition the shared device and start every tenant's engine.
    pub fn build(self) -> Result<Fleet> {
        assert!(
            !self.tenants.is_empty(),
            "a fleet needs at least one tenant"
        );

        // Per-tenant page budgets and window bases, in registration
        // order. Table pages inside a window follow the catalog's own
        // sequential layout, so the shared region table below names
        // exactly the LBAs each engine will use.
        let budgets: Vec<u64> = self
            .tenants
            .iter()
            .map(|(_, tables)| tables.iter().map(|t| t.pages).sum())
            .collect();
        let total: u64 = budgets.iter().sum();

        // Size the shared device for the whole fleet with the driver's
        // ~40 % headroom, split across the dies.
        let ppb = 32u32;
        let (channels, dies_per_channel) = TOPOLOGY;
        let dies = (channels * dies_per_channel) as u64;
        let usable_ppb = FlashMode::Slc.usable_pages_per_block(ppb) as u64;
        let blocks_per_die = (((total * 14 / 10).div_ceil(usable_ppb * dies)) as u32 + 8).max(12);
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, PAGE_SIZE, 64),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none())
        .with_seed(self.seed);
        let controller = ControllerConfig::new(channels, dies_per_channel, chip)
            .with_queue_cap(QUEUE_CAP)
            .with_qos();

        // One shared region table naming every tenant's tables at their
        // shared-space LBAs — the device-level view of the partition.
        let mut regions = RegionTable::new();
        let mut base = 0u64;
        for ((name, tables), budget) in self.tenants.iter().zip(&budgets) {
            let mut first = base;
            for t in tables {
                regions.add(Region {
                    name: format!("{name}/{}", t.name),
                    lbas: first..first + t.pages,
                    layout: None,
                });
                first += t.pages;
            }
            base += budget;
        }

        let shared = ShardedFtl::with_regions(
            controller,
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
            regions,
        );
        // Long soaks must not grow memory linearly: read latencies go to
        // the fixed-memory histogram, not the exact per-read `Vec`.
        shared.controller().set_bounded_read_latencies(true);
        assert!(
            total <= shared.capacity_pages(),
            "fleet needs {total} pages but the shared device exports {}",
            shared.capacity_pages()
        );
        let shared = Rc::new(RefCell::new(shared));

        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut base = 0u64;
        for ((name, tables), budget) in self.tenants.into_iter().zip(budgets) {
            let mut engine_cfg = EngineConfig::default()
                .with_buffer_frames(BUFFER_FRAMES)
                .with_group_commit(1)
                .with_striped_wal(WAL_STRIPE.0, WAL_STRIPE.1);
            engine_cfg.wal_pages = WAL_PAGES;
            let view = TenantDevice::new(Rc::clone(&shared), base, budget);
            let engine =
                StorageEngine::build_with_device(PAGE_SIZE, engine_cfg, &tables, |_, _| {
                    Box::new(view)
                })?;
            tenants.push(TenantHandle {
                name,
                engine,
                kills: 0,
                recoveries: 0,
                running: true,
            });
            base += budget;
        }

        Ok(Fleet { shared, tenants })
    }
}

/// A running multi-tenant fleet over one shared device. The fleet runs on
/// one host thread and owns the device; its tenants' windows alias it.
pub struct Fleet {
    shared: Rc<RefCell<ShardedFtl>>,
    tenants: Vec<TenantHandle>,
}

impl Fleet {
    /// A fleet whose shared device draws from `seed`.
    pub fn builder(seed: u64) -> FleetBuilder {
        FleetBuilder::new(seed)
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn tenants_mut(&mut self) -> &mut [TenantHandle] {
        &mut self.tenants
    }

    pub fn tenant_mut(&mut self, id: usize) -> &mut TenantHandle {
        &mut self.tenants[id]
    }

    /// Remove a tenant from the fleet entirely; its RAII `Drop` returns
    /// the LBA window to the shared device.
    pub fn evict(&mut self, id: usize) -> TenantHandle {
        self.tenants.remove(id)
    }

    /// Current submission clock of the shared device, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.shared.borrow().submission_clock_ns()
    }

    /// Counters of the shared data device (all tenants merged).
    pub fn shared_stats(&self) -> DeviceStats {
        self.shared.borrow().device_stats()
    }

    /// Scheduler counters of the shared controller.
    pub fn controller_stats(&self) -> Option<ControllerStats> {
        Some(self.shared.borrow().controller().stats())
    }

    /// Sealed WAL pages recycled by checkpoints, summed over the fleet's
    /// per-tenant log devices.
    pub fn wal_stripes_reclaimed(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| {
                t.engine
                    .stats()
                    .wal_device
                    .map(|d| d.wal_stripes_reclaimed)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Kill/recover cycles completed across the fleet.
    pub fn kills(&self) -> u64 {
        self.tenants.iter().map(|t| t.kills).sum()
    }

    pub fn recoveries(&self) -> u64 {
        self.tenants.iter().map(|t| t.recoveries).sum()
    }
}

/// One tenant: an engine over its [`TenantDevice`] window, with the
/// crash/recover lifecycle and RAII teardown (dropping the handle trims
/// the tenant's window off the shared device).
pub struct TenantHandle {
    name: String,
    engine: StorageEngine,
    kills: u64,
    recoveries: u64,
    running: bool,
}

impl TenantHandle {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut StorageEngine {
        assert!(
            self.running,
            "tenant {} is killed; recover() before driving it",
            self.name
        );
        &mut self.engine
    }

    pub fn is_running(&self) -> bool {
        self.running
    }

    pub fn kills(&self) -> u64 {
        self.kills
    }

    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Kill the tenant at this instant: every buffered (unflushed) page
    /// is gone, exactly like power loss. The WAL survives.
    pub fn kill(&mut self) {
        assert!(self.running, "tenant {} is already killed", self.name);
        self.engine.crash();
        self.running = false;
        self.kills += 1;
    }

    /// Replay the WAL and bring the tenant back to its committed state.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        assert!(!self.running, "tenant {} is not killed", self.name);
        let report = self.engine.recover()?;
        self.running = true;
        self.recoveries += 1;
        Ok(report)
    }

    /// Flush everything and recycle dead log space
    /// ([`StorageEngine::checkpoint`]).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.engine.checkpoint()
    }
}

impl Drop for TenantHandle {
    fn drop(&mut self) {
        // RAII teardown: return the window to the shared device so a
        // departed tenant's pages become reclaimable free space instead
        // of immortal live data squatting in every future GC pass.
        let window = self.engine.pool_mut().device_mut();
        for lba in 0..window.capacity_pages() {
            if window.is_mapped(lba) {
                let _ = window.trim(lba);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_fleet() -> Fleet {
        Fleet::builder(0xF1EE7)
            .tenant("a", vec![TableSpec::heap("rows", 48, 24)])
            .tenant("b", vec![TableSpec::heap("rows", 48, 24)])
            .build()
            .expect("fleet builds")
    }

    fn insert_row(t: &mut TenantHandle, byte: u8) -> ipa_storage::Rid {
        let e = t.engine_mut();
        let table = e.table("rows").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, table, &[byte; 48]).unwrap();
        e.commit(tx).unwrap();
        rid
    }

    #[test]
    fn tenants_partition_one_device() {
        let mut fleet = two_tenant_fleet();
        let ra = insert_row(fleet.tenant_mut(0), 0xAA);
        let rb = insert_row(fleet.tenant_mut(1), 0xBB);
        for t in fleet.tenants_mut() {
            t.engine_mut().flush_all().unwrap();
        }
        let ta = fleet.tenant_mut(0);
        let table = ta.engine().table("rows").unwrap();
        assert_eq!(ta.engine_mut().get(table, ra).unwrap(), vec![0xAA; 48]);
        let tb = fleet.tenant_mut(1);
        let table = tb.engine().table("rows").unwrap();
        assert_eq!(tb.engine_mut().get(table, rb).unwrap(), vec![0xBB; 48]);
        // One device underneath: both tenants' writes land on it.
        assert!(fleet.shared_stats().host_writes >= 2);
        assert!(fleet.controller_stats().is_some());
    }

    #[test]
    fn kill_recover_round_trips_committed_state() {
        let mut fleet = two_tenant_fleet();
        let rid = insert_row(fleet.tenant_mut(0), 0x5A);
        let t = fleet.tenant_mut(0);
        t.kill();
        assert!(!t.is_running());
        let report = t.recover().unwrap();
        assert!(report.updates_redone > 0, "committed insert replays");
        let table = t.engine().table("rows").unwrap();
        assert_eq!(t.engine_mut().get(table, rid).unwrap(), vec![0x5A; 48]);
        assert_eq!((t.kills(), t.recoveries()), (1, 1));
        assert_eq!(fleet.kills(), 1);
    }

    #[test]
    #[should_panic(expected = "killed")]
    fn driving_a_killed_tenant_panics() {
        let mut fleet = two_tenant_fleet();
        fleet.tenant_mut(0).kill();
        let _ = fleet.tenant_mut(0).engine_mut();
    }

    #[test]
    fn default_fleet_bounds_read_latency_memory() {
        // A fleet's read latencies go to the fixed-memory histogram
        // only; the exact per-read Vec must not grow. The Vec comes back
        // as an oracle by flipping the shared controller's mode.
        let run = |exact: bool| {
            let mut fleet = Fleet::builder(0xF1EE7)
                .tenant("a", vec![TableSpec::heap("rows", 48, 24)])
                .build()
                .expect("fleet builds");
            if exact {
                let shared = fleet.shared.borrow();
                shared.controller().set_bounded_read_latencies(false);
            }
            insert_row(fleet.tenant_mut(0), 0x3C);
            fleet.tenant_mut(0).engine_mut().flush_all().unwrap();
            let mut shared = fleet.shared.borrow_mut();
            let mapped = (0..24).find(|&l| shared.is_mapped(l)).unwrap();
            let mut buf = vec![0u8; shared.page_size()];
            for _ in 0..8 {
                shared.read(mapped, &mut buf).unwrap();
            }
            let ctrl = shared.controller();
            (
                ctrl.read_latency_count(),
                ctrl.read_latency_histogram().count(),
            )
        };
        let (exact_len, hist) = run(false);
        assert_eq!(exact_len, 0, "default soak path must not grow the Vec");
        assert!(hist >= 8, "histogram still accounts every host read");
        let (oracle_len, _) = run(true);
        assert!(oracle_len >= 8, "the exact path stays available as oracle");
    }

    #[test]
    fn drop_returns_the_window_to_the_shared_device() {
        let mut fleet = two_tenant_fleet();
        insert_row(fleet.tenant_mut(0), 0x11);
        fleet.tenant_mut(0).engine_mut().flush_all().unwrap();
        let mapped_before: Vec<u64> = (0..48)
            .filter(|&l| fleet.shared.borrow().is_mapped(l))
            .collect();
        assert!(
            mapped_before.iter().any(|&l| l < 24),
            "tenant a flushed pages inside its window"
        );
        let evicted = fleet.evict(0);
        drop(evicted);
        assert!(
            (0..24).all(|l| !fleet.shared.borrow().is_mapped(l)),
            "RAII drop trims the departed tenant's window"
        );
    }
}
