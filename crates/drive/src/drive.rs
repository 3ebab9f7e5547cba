//! A single optical drive: disc exchange, spin state, reads and burns.
//!
//! Drives are passive timing models: every operation returns the duration
//! it would take; the OLFS engine schedules the corresponding completion
//! events on the simulation clock.

use crate::media::{Disc, DiscClass, MediaError, Payload};
use crate::params;
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// Spin state of a loaded drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum SpinState {
    /// Spun down; the next access pays the ≈2 s mount delay (§5.4).
    Sleeping,
    /// Spinning and ready.
    Active,
}

/// Overall drive state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum DriveState {
    /// No disc in the tray.
    Empty,
    /// A disc is loaded.
    Loaded(SpinState),
    /// A burn is in progress; the drive is unavailable until it finishes
    /// or is interrupted.
    Burning,
}

/// Errors from drive operations.
#[derive(Clone, Debug, PartialEq)]
pub enum DriveError {
    /// Operation requires a disc but the tray is empty.
    NoDisc,
    /// Insert attempted while a disc is already loaded.
    AlreadyLoaded,
    /// The drive is busy burning.
    Busy,
    /// Media-level failure.
    Media(MediaError),
    /// A transient servo/focus error spoiled this read; retrying the
    /// same read may succeed (§3: drives recalibrate between attempts).
    TransientRead,
    /// The burn completed mechanically but verification shows the disc
    /// was spoiled; the tray must be retired and re-burned onto spares.
    BurnFailed,
    /// The drive is dead (permanent servo/laser failure); only disc
    /// exchange still works so the library can evacuate the bay.
    Failed,
}

impl From<MediaError> for DriveError {
    fn from(e: MediaError) -> Self {
        DriveError::Media(e)
    }
}

impl core::fmt::Display for DriveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriveError::NoDisc => write!(f, "no disc in drive"),
            DriveError::AlreadyLoaded => write!(f, "drive already holds a disc"),
            DriveError::Busy => write!(f, "drive is burning"),
            DriveError::Media(e) => write!(f, "media: {e}"),
            DriveError::TransientRead => write!(f, "transient read error (servo recalibrating)"),
            DriveError::BurnFailed => write!(f, "burn verification failed (disc spoiled)"),
            DriveError::Failed => write!(f, "drive failed permanently"),
        }
    }
}

impl std::error::Error for DriveError {}

/// A timed read result: the payload plus how long retrieving it took.
#[derive(Clone, Debug)]
pub struct TimedRead {
    /// The image payload (cloned; cheap for `Bytes`).
    pub payload: Payload,
    /// Time from request to last byte, including mount and seek.
    pub duration: SimDuration,
}

/// One optical drive.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpticalDrive {
    /// Stable index within the library.
    pub(crate) id: usize,
    /// Drive/disc matching quality factor in `(0, 1]`; multiplies burn
    /// speed (§3.3: only well-matched pairs reach top speed).
    pub(crate) speed_factor: f64,
    /// Burn with write-and-check verification (halves throughput, §4.7).
    pub(crate) check_mode: bool,
    state: DriveState,
    disc: Option<Disc>,
    /// Injected transient read faults still pending (each fails one read).
    transient_read_faults: u32,
    /// Injected burn faults still pending (each spoils one burn).
    pending_burn_faults: u32,
    /// Permanently failed (injected drive death).
    dead: bool,
}

impl OpticalDrive {
    /// Creates an empty drive with a given matching-quality factor.
    pub fn new(id: usize, speed_factor: f64) -> Self {
        OpticalDrive {
            id,
            speed_factor,
            check_mode: false,
            state: DriveState::Empty,
            disc: None,
            transient_read_faults: 0,
            pending_burn_faults: 0,
            dead: false,
        }
    }

    /// Arms `n` transient read faults: the next `n` reads fail with
    /// [`DriveError::TransientRead`], then reads recover.
    fn inject_transient_reads(&mut self, n: u32) {
        self.transient_read_faults = self.transient_read_faults.saturating_add(n);
    }

    /// Arms `n` burn faults: the next `n` burn completions fail with
    /// [`DriveError::BurnFailed`], leaving the drive loaded so the
    /// spoiled disc can be evacuated.
    fn inject_burn_faults(&mut self, n: u32) {
        self.pending_burn_faults = self.pending_burn_faults.saturating_add(n);
    }

    /// Kills the drive permanently. Reads and burns fail with
    /// [`DriveError::Failed`]; disc exchange keeps working so the
    /// library can evacuate the bay.
    pub(crate) fn kill(&mut self) {
        self.dead = true;
        // A burn in flight is lost with the laser.
        if self.state == DriveState::Burning {
            self.state = DriveState::Loaded(SpinState::Active);
        }
    }

    /// Swaps the unit for a fresh one of the same model (field service):
    /// clears the dead flag and any armed faults. A replacement cannot be
    /// mid-burn, so a wedged Burning state settles back to loaded.
    pub fn service(&mut self) {
        self.dead = false;
        self.transient_read_faults = 0;
        self.pending_burn_faults = 0;
        if self.state == DriveState::Burning {
            self.state = DriveState::Loaded(SpinState::Active);
        }
    }

    /// Returns the loaded disc, if any.
    pub fn disc(&self) -> Option<&Disc> {
        self.disc.as_ref()
    }

    /// Returns mutable access to the loaded disc (e.g. for fault
    /// injection in tests).
    pub fn disc_mut(&mut self) -> Option<&mut Disc> {
        self.disc.as_mut()
    }

    /// Inserts a disc; returns the tray open+close time.
    pub fn insert(&mut self, disc: Disc) -> Result<SimDuration, DriveError> {
        match self.state {
            DriveState::Empty => {
                self.disc = Some(disc);
                // A freshly inserted disc must spin up before use.
                self.state = DriveState::Loaded(SpinState::Sleeping);
                Ok(params::tray_cycle() * 2)
            }
            DriveState::Burning => Err(DriveError::Busy),
            DriveState::Loaded(_) => Err(DriveError::AlreadyLoaded),
        }
    }

    /// Ejects the disc; returns it plus the tray time.
    pub fn eject(&mut self) -> Result<(Disc, SimDuration), DriveError> {
        match self.state {
            DriveState::Burning => Err(DriveError::Busy),
            DriveState::Empty => Err(DriveError::NoDisc),
            DriveState::Loaded(_) => {
                // `Loaded` is only set while a disc is present.
                let disc = self.disc.take().ok_or(DriveError::NoDisc)?;
                self.state = DriveState::Empty;
                Ok((disc, params::tray_cycle() * 2))
            }
        }
    }

    /// Ensures the disc is spinning; returns the mount delay paid
    /// (≈2 s from sleep, zero when already active; §5.4).
    pub fn mount(&mut self) -> Result<SimDuration, DriveError> {
        match self.state {
            DriveState::Burning => Err(DriveError::Busy),
            DriveState::Empty => Err(DriveError::NoDisc),
            DriveState::Loaded(SpinState::Active) => Ok(SimDuration::ZERO),
            DriveState::Loaded(SpinState::Sleeping) => {
                self.state = DriveState::Loaded(SpinState::Active);
                Ok(params::mount_from_sleep())
            }
        }
    }

    /// Spins the drive down (after the idle timeout, driven by the engine).
    pub fn sleep(&mut self) {
        if let DriveState::Loaded(_) = self.state {
            self.state = DriveState::Loaded(SpinState::Sleeping);
        }
    }

    /// Returns the sequential read speed of the loaded disc's class.
    pub fn read_speed(&self) -> Result<Bandwidth, DriveError> {
        let disc = self.disc.as_ref().ok_or(DriveError::NoDisc)?;
        Ok(match disc.class() {
            DiscClass::Bd25 => params::read_speed_bd25(),
            DiscClass::Bd100 => params::read_speed_bd100(),
            // Scaled test discs read like BD25s.
            DiscClass::Custom { .. } => params::read_speed_bd25(),
        })
    }

    /// Reads one image from the loaded disc: mount (if sleeping) + seek +
    /// sequential transfer.
    pub fn read_image(&mut self, image_id: u64) -> Result<TimedRead, DriveError> {
        if self.state == DriveState::Burning {
            return Err(DriveError::Busy);
        }
        if self.dead {
            return Err(DriveError::Failed);
        }
        if self.transient_read_faults > 0 {
            self.transient_read_faults -= 1;
            return Err(DriveError::TransientRead);
        }
        let mount = self.mount()?;
        let speed = self.read_speed()?;
        let disc = self.disc.as_ref().ok_or(DriveError::NoDisc)?;
        let payload = disc.read_image(image_id)?.clone();
        let duration = mount + params::seek_time() + speed.time_for(payload.len());
        Ok(TimedRead { payload, duration })
    }

    /// Marks the drive as burning; reads and ejects fail until
    /// [`OpticalDrive::finish_burn`] or [`OpticalDrive::interrupt_burn`].
    pub fn begin_burn(&mut self) -> Result<(), DriveError> {
        if self.dead {
            return Err(DriveError::Failed);
        }
        match self.state {
            DriveState::Burning => Err(DriveError::Busy),
            DriveState::Empty => Err(DriveError::NoDisc),
            DriveState::Loaded(_) => {
                self.state = DriveState::Burning;
                Ok(())
            }
        }
    }

    /// Consumes a pending injected burn fault, if armed, restoring the
    /// drive to loaded state so the spoiled disc can be evacuated.
    fn take_burn_fault(&mut self) -> Result<(), DriveError> {
        if self.dead {
            self.state = DriveState::Loaded(SpinState::Active);
            return Err(DriveError::Failed);
        }
        if self.pending_burn_faults > 0 {
            self.pending_burn_faults -= 1;
            self.state = DriveState::Loaded(SpinState::Active);
            return Err(DriveError::BurnFailed);
        }
        Ok(())
    }

    /// Completes a burn, committing the image to the disc in
    /// write-all-once mode.
    pub fn finish_burn(&mut self, image_id: u64, payload: Payload) -> Result<(), DriveError> {
        if self.state != DriveState::Burning {
            return Err(DriveError::NoDisc);
        }
        self.take_burn_fault()?;
        let disc = self.disc.as_mut().ok_or(DriveError::NoDisc)?;
        disc.burn_all_once(image_id, payload)?;
        self.state = DriveState::Loaded(SpinState::Active);
        Ok(())
    }

    /// Completes a burn as an appended pseudo-overwrite track (used by the
    /// interrupt-and-resume policy of §4.8).
    pub fn finish_burn_track(&mut self, image_id: u64, payload: Payload) -> Result<(), DriveError> {
        if self.state != DriveState::Burning {
            return Err(DriveError::NoDisc);
        }
        self.take_burn_fault()?;
        let disc = self.disc.as_mut().ok_or(DriveError::NoDisc)?;
        disc.burn_track(image_id, payload)?;
        self.state = DriveState::Loaded(SpinState::Active);
        Ok(())
    }

    /// Interrupts an in-progress burn (the aggressive read policy of
    /// §4.8), leaving the disc open for an appending re-burn. The partial
    /// burn is committed as a truncated pseudo-overwrite track carrying
    /// `burned_bytes` of the image.
    pub fn interrupt_burn(&mut self, image_id: u64, burned_bytes: u64) -> Result<(), DriveError> {
        if self.state != DriveState::Burning {
            return Err(DriveError::NoDisc);
        }
        let disc = self.disc.as_mut().ok_or(DriveError::NoDisc)?;
        if burned_bytes > 0 {
            // Partial data occupies a truncated track; OLFS re-burns the
            // full image afterwards.
            disc.burn_track(image_id, Payload::synthetic(burned_bytes))?;
        }
        self.state = DriveState::Loaded(SpinState::Active);
        Ok(())
    }
}

/// The drive accepts drive-level fault kinds. Targeting coordinates
/// (`bay`, `drive`) are the *router's* concern: by the time an event
/// reaches a concrete drive it applies unconditionally.
impl ros_faults::FaultSink for OpticalDrive {
    fn inject_fault(&mut self, event: &ros_faults::FaultEvent) -> ros_faults::InjectionOutcome {
        use ros_faults::{FaultKind, InjectionOutcome};
        match &event.kind {
            FaultKind::DriveTransientReads { count, .. } => {
                self.inject_transient_reads(*count);
                InjectionOutcome::Injected
            }
            FaultKind::DriveBurnFaults { count, .. } => {
                self.inject_burn_faults(*count);
                InjectionOutcome::Injected
            }
            FaultKind::DriveDeath { .. } => {
                if self.dead {
                    InjectionOutcome::Skipped(format!("drive {} already dead", self.id))
                } else {
                    self.kill();
                    InjectionOutcome::Injected
                }
            }
            _ => InjectionOutcome::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaKind;

    fn small_disc(id: u64) -> Disc {
        Disc::blank(
            id,
            DiscClass::Custom {
                capacity: 1024 * params::SECTOR_BYTES,
            },
            MediaKind::Worm,
        )
    }

    fn burned_disc(id: u64, image_id: u64, bytes: usize) -> Disc {
        let mut d = small_disc(id);
        d.burn_all_once(image_id, Payload::inline(vec![0xAB; bytes]))
            .unwrap();
        d
    }

    #[test]
    fn insert_eject_cycle() {
        let mut dr = OpticalDrive::new(0, 1.0);
        assert_eq!(dr.state, DriveState::Empty);
        let t = dr.insert(small_disc(1)).unwrap();
        assert_eq!(t, params::tray_cycle() * 2);
        assert_eq!(dr.state, DriveState::Loaded(SpinState::Sleeping));
        assert!(matches!(
            dr.insert(small_disc(2)).unwrap_err(),
            DriveError::AlreadyLoaded
        ));
        let (disc, _) = dr.eject().unwrap();
        assert_eq!(disc.id, 1);
        assert_eq!(dr.state, DriveState::Empty);
        assert!(matches!(dr.eject().unwrap_err(), DriveError::NoDisc));
    }

    #[test]
    fn mount_pays_sleep_penalty_once() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(small_disc(1)).unwrap();
        assert_eq!(dr.mount().unwrap(), params::mount_from_sleep());
        assert_eq!(dr.mount().unwrap(), SimDuration::ZERO);
        dr.sleep();
        assert_eq!(dr.mount().unwrap(), params::mount_from_sleep());
    }

    #[test]
    fn read_includes_mount_seek_and_transfer() {
        let mut dr = OpticalDrive::new(0, 1.0);
        let bytes = 24_100_000; // Exactly one second of BD25 transfer.
        let mut disc = Disc::blank(
            1,
            DiscClass::Custom {
                capacity: 32 * 1024 * 1024,
            },
            MediaKind::Worm,
        );
        disc.burn_all_once(5, Payload::synthetic(bytes)).unwrap();
        dr.insert(disc).unwrap();
        let r = dr.read_image(5).unwrap();
        let expected = params::mount_from_sleep()
            + params::seek_time()
            + params::read_speed_bd25().time_for(bytes);
        assert_eq!(r.duration, expected);
        // Second read: no mount penalty.
        let r2 = dr.read_image(5).unwrap();
        assert_eq!(
            r2.duration,
            params::seek_time() + params::read_speed_bd25().time_for(bytes)
        );
    }

    #[test]
    fn read_propagates_media_errors() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(burned_disc(1, 7, 8192)).unwrap();
        assert!(matches!(
            dr.read_image(99).unwrap_err(),
            DriveError::Media(MediaError::NoSuchImage(99))
        ));
        dr.disc_mut().unwrap().corrupt_sector(0);
        assert!(matches!(
            dr.read_image(7).unwrap_err(),
            DriveError::Media(MediaError::SectorErrors { .. })
        ));
    }

    #[test]
    fn burn_lifecycle_blocks_concurrent_ops() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(small_disc(1)).unwrap();
        dr.begin_burn().unwrap();
        assert_eq!(dr.state, DriveState::Burning);
        assert!(matches!(dr.read_image(1).unwrap_err(), DriveError::Busy));
        assert!(matches!(dr.eject().unwrap_err(), DriveError::Busy));
        assert!(matches!(dr.begin_burn().unwrap_err(), DriveError::Busy));
        dr.finish_burn(3, Payload::inline(vec![1u8; 2048])).unwrap();
        assert_eq!(dr.state, DriveState::Loaded(SpinState::Active));
        let mut disc = dr.disc().unwrap().clone();
        assert_eq!(
            disc.burn_track(4, Payload::synthetic(2048)).unwrap_err(),
            MediaError::Finalized
        );
        let r = dr.read_image(3).unwrap();
        assert_eq!(r.payload.len(), 2048);
    }

    #[test]
    fn interrupted_burn_leaves_disc_open_for_append() {
        let mut dr = OpticalDrive::new(0, 1.0);
        let cap = 3 * params::TRACK_METADATA_BYTES;
        dr.insert(Disc::blank(
            1,
            DiscClass::Custom { capacity: cap },
            MediaKind::Worm,
        ))
        .unwrap();
        dr.begin_burn().unwrap();
        dr.interrupt_burn(9, 4096).unwrap();
        let disc = dr.disc().unwrap();
        assert_eq!(disc.tracks().len(), 1);
        // Resume by appending the full image as a fresh track.
        dr.begin_burn().unwrap();
        dr.finish_burn_track(9, Payload::synthetic(8192)).unwrap();
        assert_eq!(dr.disc().unwrap().tracks().len(), 2);
    }

    #[test]
    fn transient_read_faults_fail_then_recover() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(burned_disc(1, 7, 4096)).unwrap();
        dr.inject_transient_reads(2);
        assert!(matches!(
            dr.read_image(7).unwrap_err(),
            DriveError::TransientRead
        ));
        assert!(matches!(
            dr.read_image(7).unwrap_err(),
            DriveError::TransientRead
        ));
        assert_eq!(dr.read_image(7).unwrap().payload.len(), 4096);
    }

    #[test]
    fn burn_fault_spoils_one_burn_and_unblocks_the_drive() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(small_disc(1)).unwrap();
        dr.inject_burn_faults(1);
        dr.begin_burn().unwrap();
        assert!(matches!(
            dr.finish_burn(3, Payload::inline(vec![1u8; 512]))
                .unwrap_err(),
            DriveError::BurnFailed
        ));
        // The drive is loaded again, so the spoiled disc can be ejected.
        assert!(matches!(dr.state, DriveState::Loaded(_)));
        assert!(dr.eject().is_ok());
    }

    #[test]
    fn dead_drive_refuses_io_but_allows_evacuation() {
        let mut dr = OpticalDrive::new(0, 1.0);
        dr.insert(burned_disc(1, 7, 1024)).unwrap();
        dr.kill();
        assert!(dr.dead);
        assert!(matches!(dr.read_image(7).unwrap_err(), DriveError::Failed));
        assert!(matches!(dr.begin_burn().unwrap_err(), DriveError::Failed));
        let (disc, _) = dr.eject().unwrap();
        assert_eq!(disc.id, 1);
    }

    #[test]
    fn fault_sink_routes_drive_kinds() {
        use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};
        let mut dr = OpticalDrive::new(3, 1.0);
        let ev = |kind: FaultKind| FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        };
        assert_eq!(
            dr.inject_fault(&ev(FaultKind::DriveTransientReads {
                bay: 0,
                drive: 3,
                count: 2
            })),
            InjectionOutcome::Injected
        );
        assert_eq!(
            dr.inject_fault(&ev(FaultKind::MechTransient { count: 1 })),
            InjectionOutcome::NotApplicable
        );
        assert_eq!(
            dr.inject_fault(&ev(FaultKind::DriveDeath { bay: 0, drive: 3 })),
            InjectionOutcome::Injected
        );
        assert!(matches!(
            dr.inject_fault(&ev(FaultKind::DriveDeath { bay: 0, drive: 3 })),
            InjectionOutcome::Skipped(_)
        ));
    }
}
