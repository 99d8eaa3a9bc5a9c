//! Device configuration: geometry + mode + timing + noise + endurance.

use serde::{Deserialize, Serialize};

use crate::cell::FlashMode;
use crate::geometry::Geometry;
use crate::interference::DisturbRates;
use crate::ispp::IsppParams;

/// Bus / array timing that is not derived from the ISPP staircase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Array-to-register sense time for a page read, nanoseconds.
    pub read_sense_ns: u64,
    /// Bus transfer time per byte (ONFI-class ~200 MB/s ⇒ 5 ns/B).
    pub bus_ns_per_byte: u64,
    /// Block erase time, nanoseconds.
    pub erase_ns: u64,
    /// Time for the array to park an in-flight erase pulse on an
    /// erase-suspend command, before the die can serve a read. Datasheet
    /// tESPD-class figures; well under one sense time.
    #[serde(default)]
    pub erase_suspend_ns: u64,
}

impl LatencyModel {
    /// SLC-class timings.
    pub fn slc() -> Self {
        LatencyModel {
            read_sense_ns: 25_000,
            bus_ns_per_byte: 5,
            erase_ns: 1_500_000,
            erase_suspend_ns: 20_000,
        }
    }

    /// MLC-class timings (the paper's K9LCG08U1M ballpark).
    pub fn mlc() -> Self {
        LatencyModel {
            read_sense_ns: 75_000,
            bus_ns_per_byte: 5,
            erase_ns: 3_000_000,
            erase_suspend_ns: 50_000,
        }
    }

    /// 3D-TLC timings (slower sense, comparable erase).
    pub fn tlc() -> Self {
        LatencyModel {
            read_sense_ns: 90_000,
            bus_ns_per_byte: 5,
            erase_ns: 3_500_000,
            erase_suspend_ns: 50_000,
        }
    }

    pub fn for_mode(mode: FlashMode) -> Self {
        match mode {
            FlashMode::Slc => Self::slc(),
            FlashMode::Tlc3d => Self::tlc(),
            _ => Self::mlc(),
        }
    }

    /// Bus time to move `bytes` across the channel.
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        self.bus_ns_per_byte * bytes as u64
    }
}

/// Complete configuration of a simulated device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    pub geometry: Geometry,
    pub mode: FlashMode,
    pub ispp: IsppParams,
    pub latency: LatencyModel,
    pub disturb: DisturbRates,
    /// Seed for the device's fault-injection RNG.
    pub seed: u64,
    /// Override the per-mode NOP budget (programs per page between erases).
    pub nop_override: Option<u16>,
    /// Block erase endurance: erases before a block is retired. MLC-class
    /// default; the longevity experiment (E4) divides this by the measured
    /// erase rate.
    pub erase_endurance: u32,
    /// How many times one in-flight erase may be suspended for host reads
    /// before it runs to completion unsuspendably (datasheets bound the
    /// resume count so an erase under constant read pressure still
    /// finishes). Zero disables erase-suspend entirely.
    #[serde(default)]
    pub erase_resume_limit: u16,
}

impl DeviceConfig {
    /// Config with everything derived from a geometry and mode.
    pub fn new(geometry: Geometry, mode: FlashMode) -> Self {
        DeviceConfig {
            geometry,
            mode,
            ispp: IsppParams::for_cell(mode.cell_type()),
            latency: LatencyModel::for_mode(mode),
            disturb: DisturbRates::realistic(),
            seed: 0xF1A5_81A5,
            nop_override: None,
            erase_endurance: match mode {
                FlashMode::Slc => 100_000,
                FlashMode::Tlc3d => 3_000,
                _ => 5_000,
            },
            erase_resume_limit: 2,
        }
    }

    /// 4 MB device for unit tests.
    pub fn tiny() -> Self {
        DeviceConfig::new(Geometry::tiny(), FlashMode::PSlc)
    }

    /// 64 MB device (128 blocks × 64 pages × 8 KB) for examples.
    pub fn small() -> Self {
        DeviceConfig::new(Geometry::new(128, 64, 8192, 128), FlashMode::PSlc)
    }

    /// 512 MB device with 8 KB pages ([`Geometry::experiment`]).
    pub fn experiment(mode: FlashMode) -> Self {
        DeviceConfig::new(Geometry::experiment(), mode)
    }

    /// The paper's 8 GB K9LCG08U1M package (lazy allocation keeps this
    /// cheap until written).
    pub fn jasmine(mode: FlashMode) -> Self {
        DeviceConfig::new(Geometry::jasmine(), mode)
    }

    /// Builder-style mode override (re-derives ISPP/latency/endurance).
    pub fn with_mode(mut self, mode: FlashMode) -> Self {
        let seed = self.seed;
        let nop = self.nop_override;
        let disturb = self.disturb;
        let resume_limit = self.erase_resume_limit;
        self = DeviceConfig::new(self.geometry, mode);
        self.seed = seed;
        self.nop_override = nop;
        self.disturb = disturb;
        self.erase_resume_limit = resume_limit;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_disturb(mut self, rates: DisturbRates) -> Self {
        self.disturb = rates;
        self
    }

    pub fn with_nop(mut self, nop: u16) -> Self {
        self.nop_override = Some(nop);
        self
    }

    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_derives_parameters() {
        let slc = DeviceConfig::new(Geometry::tiny(), FlashMode::Slc);
        let mlc = DeviceConfig::new(Geometry::tiny(), FlashMode::OddMlc);
        assert!(slc.latency.erase_ns < mlc.latency.erase_ns);
        assert!(slc.erase_endurance > mlc.erase_endurance);
    }

    #[test]
    fn builders_preserve_overrides() {
        let c = DeviceConfig::tiny()
            .with_seed(7)
            .with_nop(3)
            .with_mode(FlashMode::OddMlc);
        assert_eq!(c.seed, 7);
        assert_eq!(c.nop_override, Some(3));
        assert_eq!(c.mode, FlashMode::OddMlc);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = LatencyModel::mlc();
        assert_eq!(l.transfer_ns(8192), 8192 * 5);
        assert!(l.transfer_ns(100) < l.transfer_ns(8192));
    }
}
