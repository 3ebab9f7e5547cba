//! Unified OLFS error type.

use crate::ids::{ArrayId, DiscId, ImageId};
use ros_disk::volume::VolumeError;
use ros_drive::media::MediaError;
use ros_drive::DriveError;
use ros_mech::ops::MechError;
use ros_udf::bucket::BucketError;
use ros_udf::tree::TreeError;

/// Any error OLFS can surface to a caller.
#[derive(Clone, Debug, PartialEq)]
pub enum OlfsError {
    /// The path does not exist in the global namespace.
    NotFound(String),
    /// A file already exists at the path.
    AlreadyExists(String),
    /// Invalid path or argument.
    Invalid(String),
    /// The requested version of a file is no longer recorded.
    VersionGone {
        /// The file path.
        path: String,
        /// The requested version.
        version: u32,
    },
    /// An image is referenced but cannot be located anywhere.
    ImageLost(ImageId),
    /// A disc cannot be read and redundancy cannot repair it.
    Unrecoverable {
        /// The damaged image.
        image: ImageId,
        /// Its array, if assigned.
        array: Option<ArrayId>,
    },
    /// A verified payload offered as an image's disk copy hashes to a
    /// different digest than the DIM records for that image.
    DigestMismatch {
        /// The image whose recorded digest the payload does not match.
        image: ImageId,
    },
    /// The operation would have dropped the last reference to an image's
    /// bytes — its burn location, while no buffer copy exists — and was
    /// refused.
    SoleCopy {
        /// The image whose only copy is the one about to be forgotten.
        image: ImageId,
    },
    /// No drive bay can serve a fetch and the policy forbids waiting.
    NoDriveAvailable,
    /// No empty disc array remains for burning.
    OutOfDiscs,
    /// The write buffer is out of space.
    BufferFull,
    /// Mechanical failure.
    Mech(String),
    /// Optical drive failure.
    Drive(String),
    /// Disk volume failure.
    Volume(String),
    /// Media failure naming the disc.
    Media {
        /// The failing disc.
        disc: DiscId,
        /// The underlying error text.
        detail: String,
    },
    /// UDF bucket/tree failure.
    Udf(String),
    /// System is in a state that forbids the operation.
    BadState(String),
    /// A transient fault (servo glitch, mechanical misfeed, drive being
    /// rerouted around); the same operation may succeed on retry.
    Transient(String),
    /// A supervised operation ran out of retry budget; `last` is the
    /// transient error from the final attempt.
    RetriesExhausted {
        /// The supervised operation ("read", "write", ...).
        op: String,
        /// Attempts performed before giving up.
        attempts: u32,
        /// The last transient failure.
        last: Box<OlfsError>,
    },
}

impl core::fmt::Display for OlfsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OlfsError::NotFound(p) => write!(f, "not found: {p}"),
            OlfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            OlfsError::Invalid(m) => write!(f, "invalid: {m}"),
            OlfsError::VersionGone { path, version } => {
                write!(f, "version {version} of {path} is no longer recorded")
            }
            OlfsError::ImageLost(i) => write!(f, "image {i} lost"),
            OlfsError::Unrecoverable { image, array } => {
                write!(f, "image {image} unrecoverable (array {array:?})")
            }
            OlfsError::DigestMismatch { image } => {
                write!(f, "payload digest does not match image {image}")
            }
            OlfsError::SoleCopy { image } => {
                write!(
                    f,
                    "image {image} has no buffer copy; refusing to forget its disc"
                )
            }
            OlfsError::NoDriveAvailable => write!(f, "no drive available"),
            OlfsError::OutOfDiscs => write!(f, "no empty disc arrays remain"),
            OlfsError::BufferFull => write!(f, "disk write buffer full"),
            OlfsError::Mech(m) => write!(f, "mechanical: {m}"),
            OlfsError::Drive(m) => write!(f, "drive: {m}"),
            OlfsError::Volume(m) => write!(f, "volume: {m}"),
            OlfsError::Media { disc, detail } => write!(f, "disc {disc}: {detail}"),
            OlfsError::Udf(m) => write!(f, "udf: {m}"),
            OlfsError::BadState(m) => write!(f, "bad state: {m}"),
            OlfsError::Transient(m) => write!(f, "transient: {m}"),
            OlfsError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for OlfsError {}

impl From<MechError> for OlfsError {
    fn from(e: MechError) -> Self {
        match e {
            MechError::Transient(_) => OlfsError::Transient(e.to_string()),
            other => OlfsError::Mech(other.to_string()),
        }
    }
}

impl From<DriveError> for OlfsError {
    fn from(e: DriveError) -> Self {
        match e {
            DriveError::TransientRead => OlfsError::Transient(e.to_string()),
            other => OlfsError::Drive(other.to_string()),
        }
    }
}

/// Only [`OlfsError::Transient`] is worth a bounded retry; everything
/// else is either a hard fault or a semantic error.
impl ros_faults::Transience for OlfsError {
    fn is_transient(&self) -> bool {
        matches!(self, OlfsError::Transient(_))
    }
}

impl From<VolumeError> for OlfsError {
    fn from(e: VolumeError) -> Self {
        OlfsError::Volume(e.to_string())
    }
}

impl From<BucketError> for OlfsError {
    fn from(e: BucketError) -> Self {
        OlfsError::Udf(e.to_string())
    }
}

impl From<TreeError> for OlfsError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::NotFound(p) => OlfsError::NotFound(p),
            TreeError::AlreadyExists(p) => OlfsError::AlreadyExists(p),
            other => OlfsError::Udf(other.to_string()),
        }
    }
}

impl OlfsError {
    /// Wraps a media error with its disc id.
    pub fn media(disc: DiscId, e: MediaError) -> Self {
        OlfsError::Media {
            disc,
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_meaning() {
        let e: OlfsError = TreeError::NotFound("/x".into()).into();
        assert_eq!(e, OlfsError::NotFound("/x".into()));
        let e: OlfsError = TreeError::AlreadyExists("/y".into()).into();
        assert_eq!(e, OlfsError::AlreadyExists("/y".into()));
        let e: OlfsError = TreeError::InvalidPath("zzz".into()).into();
        assert!(matches!(e, OlfsError::Udf(_)));
    }

    #[test]
    fn displays_are_informative() {
        let e = OlfsError::VersionGone {
            path: "/a".into(),
            version: 3,
        };
        assert!(e.to_string().contains("version 3"));
        assert!(OlfsError::ImageLost(ImageId(9)).to_string().contains('9'));
    }
}
