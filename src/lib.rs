//! ROS: a Rack-based Optical Storage system with inline accessibility.
//!
//! This is the facade crate of the ROS reproduction (EuroSys '17, Yan et
//! al.): a PB-scale optical disc library in a 42U rack — two rotatable
//! rollers of 6,120 Blu-ray discs each, a robotic arm, 24 optical drives,
//! an SSD/HDD disk tier — unified by OLFS, the Optical Library File
//! System, behind an ordinary POSIX-style interface.
//!
//! The hardware is a calibrated discrete-event simulation (an hour-long
//! burn takes microseconds of wall time but reports paper-accurate
//! latencies); the file system, bucket packing, UDF images, parity and
//! recovery are real, byte-for-byte implementations.
//!
//! # Quickstart
//!
//! ```
//! use ros::prelude::*;
//!
//! // A scaled-down library (4 MB discs) with the full mechanical model.
//! let mut system = Ros::new(RosConfig::tiny());
//!
//! // Files are immediately durable in the disk write buffer.
//! let path: UdfPath = "/projects/eurosys/paper.pdf".parse().unwrap();
//! let report = system.write_file(&path, b"fifty-year bits".to_vec()).unwrap();
//! assert_eq!(report.version, 1);
//!
//! // Reads hit the buffer in milliseconds.
//! let read = system.read_file(&path).unwrap();
//! assert_eq!(read.data.as_ref(), b"fifty-year bits");
//!
//! // Force everything onto optical discs and verify it still reads.
//! system.flush().unwrap();
//! let read = system.read_file(&path).unwrap();
//! assert_eq!(read.data.as_ref(), b"fifty-year bits");
//! ```
//!
//! # Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`ros_sim`] | discrete-event clock, bandwidth math, RNG, stats |
//! | [`ros_mech`] | roller, robotic arm, PLC, Table 3 calibration |
//! | [`ros_drive`] | optical media & drives, Figures 8-10, Table 2 |
//! | [`ros_disk`] | HDD/SSD devices, RAID with real parity, volumes |
//! | [`ros_udf`] | write-once UDF-profile images and buckets |
//! | [`ros_olfs`] | **the core contribution**: the library file system |
//! | [`ros_access`] | FUSE/Samba stack models, Figures 6-7, NAS gateway |
//! | [`ros_workload`] | filebench-style workload generators |
//! | [`ros_tco`] | 100-year TCO and rack power models |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ros_access;
pub use ros_disk;
pub use ros_drive;
pub use ros_mech;
pub use ros_olfs;
pub use ros_sim;
pub use ros_tco;
pub use ros_udf;
pub use ros_workload;

/// The common imports for applications using ROS.
pub mod prelude {
    pub use ros_access::{AccessStack, NasGateway};
    pub use ros_olfs::{MvSource, OlfsError, Redundancy, Ros, RosConfig, UdfPath};
    pub use ros_sim::{Bandwidth, SimDuration, SimTime};
    pub use ros_workload::{Runner, WorkloadSpec};
}
