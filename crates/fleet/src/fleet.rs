//! The fleet: one shared device, N tenant engines, RAII lifecycle.

use std::sync::Arc;

use ipa_controller::{ControllerConfig, ControllerStats};
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, DeviceStats, FtlConfig, Region, RegionTable, ShardedFtl, StripePolicy};
use ipa_storage::{EngineConfig, RecoveryReport, Result, StorageEngine, TableSpec};

use crate::device::{SharedDevice, TenantDevice};

/// Shared-device and per-tenant knobs for a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Controller channels of the shared device.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes: u32,
    /// Page size of the shared device (and every tenant's WAL).
    pub page_size: usize,
    /// NCQ queue cap on the shared controller (`None` = unbounded).
    pub queue_cap: Option<usize>,
    /// Latency-QoS scheduling on the shared controller.
    pub qos: bool,
    /// Device RNG seed.
    pub seed: u64,
    /// Buffer-pool frames per tenant engine.
    pub buffer_frames: usize,
    /// Per-tenant WAL capacity in log pages. Checkpoints recycle sealed
    /// stripes, so this bounds steady-state log space, not run length.
    pub wal_pages: u64,
    /// Per-tenant WAL stripe topology (`channels × dies`).
    pub wal_stripe: (u32, u32),
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            channels: 4,
            dies_per_channel: 2,
            planes: 1,
            page_size: 2048,
            queue_cap: None,
            qos: false,
            seed: 0xF1EE7,
            buffer_frames: 24,
            wal_pages: 192,
            wal_stripe: (2, 1),
        }
    }
}

/// Builder for a [`Fleet`]: configure the shared device, register the
/// tenants, then [`FleetBuilder::build`].
pub struct FleetBuilder {
    config: FleetConfig,
    tenants: Vec<(String, Vec<TableSpec>)>,
}

impl FleetBuilder {
    pub fn new(config: FleetConfig) -> Self {
        FleetBuilder {
            config,
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
        let cfg = &self.config;
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
        let dies = (cfg.channels * cfg.dies_per_channel) as u64;
        let usable_ppb = FlashMode::Slc.usable_pages_per_block(ppb) as u64;
        let blocks_per_die = (((total * 14 / 10).div_ceil(usable_ppb * dies)) as u32 + 8)
            .max(12)
            .next_multiple_of(cfg.planes);
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, cfg.page_size, 64).with_planes(cfg.planes),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none())
        .with_seed(cfg.seed);
        let mut controller = ControllerConfig::new(cfg.channels, cfg.dies_per_channel, chip);
        if let Some(cap) = cfg.queue_cap {
            controller = controller.with_queue_cap(cap);
        }
        if cfg.qos {
            controller = controller.with_qos();
        }

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

        let shared: SharedDevice = Arc::new(ShardedFtl::with_regions(
            controller,
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
            regions,
        ));
        // Long soaks must not grow memory linearly: read latencies go to
        // the fixed-memory histogram, not the exact per-read `Vec`.
        shared.controller().set_bounded_read_latencies(true);
        assert!(
            total <= shared.capacity_pages(),
            "fleet needs {total} pages but the shared device exports {}",
            shared.capacity_pages()
        );

        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut base = 0u64;
        for (id, ((name, tables), budget)) in self.tenants.into_iter().zip(budgets).enumerate() {
            let mut engine_cfg = EngineConfig::default()
                .with_buffer_frames(cfg.buffer_frames)
                .with_group_commit(1)
                .with_striped_wal(cfg.wal_stripe.0, cfg.wal_stripe.1);
            engine_cfg.wal_pages = cfg.wal_pages;
            let view = TenantDevice::new(Arc::clone(&shared), base, budget);
            let engine =
                StorageEngine::build_with_device(cfg.page_size, engine_cfg, &tables, |_, _| {
                    Box::new(view)
                })?;
            tenants.push(TenantHandle {
                id,
                name,
                engine,
                shared: Arc::clone(&shared),
                base,
                pages: budget,
                kills: 0,
                recoveries: 0,
                running: true,
            });
            base += budget;
        }

        Ok(Fleet {
            shared,
            tenants,
            config: self.config,
        })
    }
}

/// A running multi-tenant fleet over one shared device.
pub struct Fleet {
    shared: SharedDevice,
    tenants: Vec<TenantHandle>,
    config: FleetConfig,
}

impl Fleet {
    pub fn builder(config: FleetConfig) -> FleetBuilder {
        FleetBuilder::new(config)
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn tenants(&self) -> &[TenantHandle] {
        &self.tenants
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
        self.shared.submission_clock_ns()
    }

    /// Counters of the shared data device (all tenants merged).
    pub fn shared_stats(&self) -> DeviceStats {
        self.shared.device_stats()
    }

    /// Scheduler counters of the shared controller.
    pub fn controller_stats(&self) -> Option<ControllerStats> {
        Some(self.shared.controller().stats())
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
    id: usize,
    name: String,
    engine: StorageEngine,
    shared: SharedDevice,
    base: u64,
    pages: u64,
    kills: u64,
    recoveries: u64,
    running: bool,
}

impl TenantHandle {
    pub fn id(&self) -> usize {
        self.id
    }

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
        for lba in self.base..self.base + self.pages {
            if self.shared.is_mapped(lba) {
                let _ = self.shared.trim_shared(lba);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_fleet() -> Fleet {
        Fleet::builder(FleetConfig::default())
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
            let mut fleet = Fleet::builder(FleetConfig::default())
                .tenant("a", vec![TableSpec::heap("rows", 48, 24)])
                .build()
                .expect("fleet builds");
            if exact {
                fleet.shared.controller().set_bounded_read_latencies(false);
            }
            insert_row(fleet.tenant_mut(0), 0x3C);
            fleet.tenant_mut(0).engine_mut().flush_all().unwrap();
            let mapped = (0..24).find(|&l| fleet.shared.is_mapped(l)).unwrap();
            let mut buf = vec![0u8; fleet.shared.page_size()];
            for _ in 0..8 {
                fleet.shared.read_shared(mapped, &mut buf).unwrap();
            }
            let ctrl = fleet.shared.controller();
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
        let mapped_before: Vec<u64> = (0..48).filter(|&l| fleet.shared.is_mapped(l)).collect();
        assert!(
            mapped_before.iter().any(|&l| l < 24),
            "tenant a flushed pages inside its window"
        );
        let evicted = fleet.evict(0);
        drop(evicted);
        assert!(
            (0..24).all(|l| !fleet.shared.is_mapped(l)),
            "RAII drop trims the departed tenant's window"
        );
    }
}
