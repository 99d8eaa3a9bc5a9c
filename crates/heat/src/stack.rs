//! The one place the device tower is assembled.
//!
//! `ShardedFtl` → `MaintainedFtl` → `HeatDevice` nest in a fixed order
//! with two couplings that are easy to get wrong by hand: a maintained
//! stripe must be built with [`FtlConfig::with_background_gc`] (or its
//! write path reclaims inline *and* the scheduler reclaims behind it),
//! and a heat device needs the scheduler to run its destage/migration
//! jobs. The workload driver and the test fixtures all build through
//! [`build_stack`], so a layer added to the tower is added here once.

use ipa_controller::ControllerConfig;
use ipa_ftl::{FtlConfig, NativeFlashDevice, RegionTable, ShardedFtl, StripePolicy};
use ipa_maint::{MaintConfig, MaintainedFtl};

use crate::device::HeatDevice;
use crate::policy::DefaultPolicy;

/// Build the die-striped device for `controller`, wrapped in as many
/// layers as the arguments ask for:
///
/// * neither — the bare stripe, inline GC;
/// * `background_gc` — low-water GC deferred to the idle-die scheduler;
/// * `placement: Some(_)` — the heat tier and wear shifter on top of the
///   scheduler (which it needs, so `background_gc` is then implied).
pub fn build_stack(
    controller: ControllerConfig,
    ftl_config: FtlConfig,
    policy: StripePolicy,
    regions: RegionTable,
    background_gc: bool,
    placement: Option<DefaultPolicy>,
) -> Box<dyn NativeFlashDevice> {
    let background_gc = background_gc || placement.is_some();
    let ftl_config = if background_gc {
        ftl_config.with_background_gc()
    } else {
        ftl_config
    };
    let striped = ShardedFtl::with_regions(controller, ftl_config, policy, regions);
    if !background_gc {
        return Box::new(striped);
    }
    let maintained = MaintainedFtl::new(striped, MaintConfig::default());
    match placement {
        Some(placement) => Box::new(HeatDevice::new(maintained, Box::new(placement))),
        None => Box::new(maintained),
    }
}
