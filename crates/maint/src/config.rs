//! The (empty) maintenance policy.

use serde::{Deserialize, Serialize};

/// The scheduler's policy parameter, with nothing left to set: steps per
/// poll (1) and early refill (0 blocks) held one value at every call site
/// and are fixed behaviour of [`crate::MaintenanceScheduler`] now. The
/// type survives because `benchmark/` freezes the call shape of
/// [`crate::MaintainedFtl::new`] (ROADMAP direction 2 retires both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintConfig {}
