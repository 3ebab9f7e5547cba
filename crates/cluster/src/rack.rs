//! One member rack: an independent OLFS instance plus cluster-side
//! accounting.

use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::placement::RackId;
use ros_olfs::Ros;
use ros_sim::stats::LatencyRecorder;
use ros_sim::{SimDuration, SimTime};

/// A member rack of the cluster: a full single-rack ROS with its own
/// mech/drive/disk stack and event clock, wrapped with the routing state
/// the front end keeps per member (liveness, stored bytes, per-rack
/// latency recorders).
pub struct RackNode {
    id: RackId,
    ros: Ros,
    alive: bool,
    /// Service-time scale in percent; 100 is nominal, 300 means every
    /// routed operation reports 3x latency (degraded cooling, a failing
    /// switch — the rack still answers, just slowly).
    slowdown_pct: u32,
    bytes_stored: u64,
    usable_capacity: u64,
    pub(crate) read_latency: LatencyRecorder,
    pub(crate) write_latency: LatencyRecorder,
    pub(crate) bytes_read: u64,
    pub(crate) bytes_written: u64,
}

impl RackNode {
    /// Builds member `id` from the cluster configuration; an invalid
    /// rack template is a typed error.
    pub(crate) fn try_new(cfg: &ClusterConfig, id: RackId) -> Result<Self, ClusterError> {
        let rack_cfg = cfg.rack_config(id.0);
        let usable_capacity = rack_cfg.usable_capacity();
        let ros = Ros::try_new(rack_cfg)
            .map_err(|e| ClusterError::Config(format!("rack {} template: {e}", id.0)))?;
        Ok(RackNode {
            id,
            ros,
            alive: true,
            slowdown_pct: 100,
            bytes_stored: 0,
            usable_capacity,
            read_latency: LatencyRecorder::new(format!("rack{} read", id.0)),
            write_latency: LatencyRecorder::new(format!("rack{} write", id.0)),
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// Sets the service-time scale in percent; values below 1 clamp to 1.
    pub(crate) fn set_slowdown_pct(&mut self, pct: u32) {
        self.slowdown_pct = pct.max(1);
    }

    /// Scales a reported operation latency by the rack's slowdown.
    pub(crate) fn scaled(&self, d: SimDuration) -> SimDuration {
        if self.slowdown_pct == 100 {
            return d;
        }
        let nanos = d.as_nanos().saturating_mul(u64::from(self.slowdown_pct)) / 100;
        SimDuration::from_nanos(nanos)
    }

    /// The rack's cluster identity.
    pub fn id(&self) -> RackId {
        self.id
    }

    /// Whether the rack is serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Marks the rack failed (whole-rack loss: hardware, buffer and
    /// local MV are all gone from the cluster's point of view).
    pub(crate) fn fail(&mut self) {
        self.alive = false;
    }

    /// The rack's local simulated clock.
    pub(crate) fn now(&self) -> SimTime {
        self.ros.now()
    }

    /// Estimated remaining usable capacity in bytes. User payload is
    /// tracked exactly; image headers and parity overhead beyond the
    /// schema's share are not, so this is the planning estimate the
    /// placement filter uses, not an admission guarantee.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.usable_capacity.saturating_sub(self.bytes_stored)
    }

    /// Bytes of user payload routed to this rack.
    pub(crate) fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    pub(crate) fn note_stored(&mut self, bytes: u64) {
        self.bytes_stored = self.bytes_stored.saturating_add(bytes);
    }

    /// The wrapped OLFS engine.
    pub fn ros(&self) -> &Ros {
        &self.ros
    }

    /// The wrapped OLFS engine, mutably.
    pub(crate) fn ros_mut(&mut self) -> &mut Ros {
        &mut self.ros
    }

    /// Resets the per-rack measurement epoch (latency samples and byte
    /// counters); placement accounting is untouched.
    pub(crate) fn reset_stats(&mut self) {
        self.read_latency = LatencyRecorder::new(format!("rack{} read", self.id.0));
        self.write_latency = LatencyRecorder::new(format!("rack{} write", self.id.0));
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_wraps_an_engine_with_identity() {
        let cfg = ClusterConfig::tiny(2);
        let mut node = RackNode::try_new(&cfg, RackId(1)).unwrap();
        assert_eq!(node.id(), RackId(1));
        assert!(node.is_alive());
        assert_eq!(node.ros().status().rack_id, 1);
        let free = node.free_bytes();
        node.ros_mut()
            .write_file(&"/f".parse().unwrap(), vec![0u8; 512])
            .unwrap();
        node.note_stored(512);
        assert_eq!(node.free_bytes(), free - 512);
        node.fail();
        assert!(!node.is_alive());
    }
}
