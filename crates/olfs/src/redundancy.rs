//! Delayed parity generation and disc-array reconstruction (§4.7).
//!
//! "OLFS does not generate parity data synchronously when data are written
//! into images. On the contrary, parity disc images are generated only
//! when all data disc images in the same disc array have been prepared...
//! Note that the parity image is not a UDF volume."
//!
//! Parity is computed over the *raw serialized bytes* of the data images,
//! zero-padded to the longest member (burned images are physically
//! zero-filled past their used region anyway). Reconstruction therefore
//! recovers the exact image bytes, which re-parse into the exact file
//! tree — verified end to end in the tests.

use crate::config::Redundancy;
use bytes::{Bytes, Pieces};
use ros_disk::parity::{self, ParityError};
use ros_disk::plane::DataPlane;

/// Parity payloads for one disc array.
#[derive(Clone, Debug, PartialEq)]
pub struct ParitySet {
    /// XOR parity (present for RAID-5 and RAID-6).
    pub p: Option<Bytes>,
    /// Reed-Solomon Q parity (RAID-6 only).
    pub q: Option<Bytes>,
    /// Length every member was padded to.
    pub stripe_len: usize,
}

/// Errors from redundancy operations.
#[derive(Clone, Debug, PartialEq)]
pub enum RedundancyError {
    /// Underlying parity math failed.
    Parity(ParityError),
    /// Losses exceed what the schema tolerates.
    TooManyLost {
        /// Missing member count.
        lost: usize,
        /// Tolerated count.
        tolerated: usize,
    },
    /// No members supplied.
    Empty,
}

impl From<ParityError> for RedundancyError {
    fn from(e: ParityError) -> Self {
        RedundancyError::Parity(e)
    }
}

impl core::fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RedundancyError::Parity(e) => write!(f, "parity: {e}"),
            RedundancyError::TooManyLost { lost, tolerated } => {
                write!(f, "{lost} members lost, {tolerated} tolerated")
            }
            RedundancyError::Empty => write!(f, "no members"),
        }
    }
}

impl std::error::Error for RedundancyError {}

/// Generates the parity payload(s) for a prepared set of data images.
///
/// Returns `ParitySet { p: None, q: None, .. }` for [`Redundancy::None`].
/// The kernels treat short members as zero-filled to the longest, so no
/// padded copies are allocated, read a parted image where its pieces lie,
/// and RAID-6 computes P and Q in one fused pass over each image.
pub fn generate_with<P: Pieces + ?Sized>(
    schema: Redundancy,
    data_images: &[&P],
    plane: &DataPlane,
) -> Result<ParitySet, RedundancyError> {
    if data_images.is_empty() {
        return Err(RedundancyError::Empty);
    }
    let stripe_len = data_images.iter().map(|d| d.total_len()).max().unwrap_or(0);
    if schema == Redundancy::None {
        return Ok(ParitySet {
            p: None,
            q: None,
            stripe_len,
        });
    }
    let (p, q) = match schema {
        Redundancy::Raid6 => {
            let (p, q) = parity::encode_pq_with(data_images, plane)?;
            (Bytes::from(p), Some(Bytes::from(q)))
        }
        _ => (
            Bytes::from(parity::parity_p_with(data_images, plane)?),
            None,
        ),
    };
    // Debug builds re-verify the freshly generated parity group before it
    // is handed to the burn pipeline, the members zero-filled to the
    // stripe as they are on disc; compiled out in release.
    parity::debug_assert_group(data_images, &p, q.as_ref());
    Ok(ParitySet {
        p: Some(p),
        q,
        stripe_len,
    })
}

/// Rebuilds the lost data images from the survivors plus parity.
///
/// `data[i] = None` marks a lost member; `sizes[i]` gives each member's
/// original (unpadded) length so recovered payloads are trimmed back.
/// Survivors shorter than the stripe read as zero-filled, so none is
/// copied to pad it, and a survivor in pieces is read where they lie.
/// Returns the lost members only, in index order — none when nothing is
/// lost: a survivor is never copied back out.
pub fn reconstruct_with<P: Pieces + ?Sized>(
    schema: Redundancy,
    data: &[Option<&P>],
    sizes: &[usize],
    p: Option<&P>,
    q: Option<&P>,
    plane: &DataPlane,
) -> Result<Vec<Bytes>, RedundancyError> {
    assert_eq!(data.len(), sizes.len(), "one size per member");
    let lost = data.iter().filter(|d| d.is_none()).count();
    let tolerated = schema.tolerated_losses() as usize;
    if lost > tolerated {
        return Err(RedundancyError::TooManyLost { lost, tolerated });
    }
    if lost == 0 {
        return Ok(Vec::new());
    }
    let parity = match schema {
        Redundancy::None => {
            return Err(RedundancyError::TooManyLost { lost, tolerated: 0 });
        }
        Redundancy::Raid5 => vec![p],
        Redundancy::Raid6 => vec![p, q],
    };
    let lost_sizes = data.iter().zip(sizes).filter(|(d, _)| d.is_none());
    Ok(parity::rebuild_lost_with(data, &parity, plane)?
        .into_iter()
        .zip(lost_sizes)
        .map(|(mut v, (_, &len))| {
            v.truncate(len);
            Bytes::from(v)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn images() -> Vec<Vec<u8>> {
        // Realistically ragged lengths.
        (0..11u8)
            .map(|i| {
                (0..(500 + i as usize * 37))
                    .map(|j| i.wrapping_mul(31) ^ (j as u8))
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    fn one() -> DataPlane {
        DataPlane::single()
    }

    #[test]
    fn raid5_round_trip_any_single_loss() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate_with(Redundancy::Raid5, &refs(&imgs), &one()).unwrap();
        assert!(set.p.is_some() && set.q.is_none());
        for lost in 0..imgs.len() {
            let masked: Vec<Option<&[u8]>> = imgs
                .iter()
                .enumerate()
                .map(|(i, d)| (i != lost).then_some(d.as_slice()))
                .collect();
            let rec = reconstruct_with(
                Redundancy::Raid5,
                &masked,
                &sizes,
                set.p.as_deref(),
                None,
                &one(),
            )
            .unwrap();
            assert_eq!(rec, [imgs[lost].clone()]);
        }
    }

    #[test]
    fn raid6_round_trip_any_double_loss() {
        let imgs: Vec<Vec<u8>> = images().into_iter().take(10).collect();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate_with(Redundancy::Raid6, &refs(&imgs), &one()).unwrap();
        assert!(set.p.is_some() && set.q.is_some());
        for x in 0..imgs.len() {
            for y in (x + 1)..imgs.len() {
                let masked: Vec<Option<&[u8]>> = imgs
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (i != x && i != y).then_some(d.as_slice()))
                    .collect();
                let rec = reconstruct_with(
                    Redundancy::Raid6,
                    &masked,
                    &sizes,
                    set.p.as_deref(),
                    set.q.as_deref(),
                    &one(),
                )
                .unwrap();
                assert_eq!(rec, [imgs[x].clone(), imgs[y].clone()]);
            }
        }
    }

    #[test]
    fn generate_and_reconstruct_are_thread_count_invariant() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let expect = generate_with(Redundancy::Raid6, &refs(&imgs), &one()).unwrap();
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[2] = None;
        masked[9] = None;
        let expect_rec = reconstruct_with(
            Redundancy::Raid6,
            &masked,
            &sizes,
            expect.p.as_deref(),
            expect.q.as_deref(),
            &one(),
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let plane = DataPlane::new(threads);
            let got = generate_with(Redundancy::Raid6, &refs(&imgs), &plane).unwrap();
            assert_eq!(got, expect, "threads={threads}");
            let rec = reconstruct_with(
                Redundancy::Raid6,
                &masked,
                &sizes,
                got.p.as_deref(),
                got.q.as_deref(),
                &plane,
            )
            .unwrap();
            assert_eq!(rec, expect_rec, "threads={threads}");
        }
    }

    #[test]
    fn raid5_rejects_double_loss() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate_with(Redundancy::Raid5, &refs(&imgs), &one()).unwrap();
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        assert!(matches!(
            reconstruct_with(
                Redundancy::Raid5,
                &masked,
                &sizes,
                set.p.as_deref(),
                None,
                &one()
            )
            .unwrap_err(),
            RedundancyError::TooManyLost {
                lost: 2,
                tolerated: 1
            }
        ));
    }

    #[test]
    fn none_schema_has_no_parity_and_no_recovery() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let set = generate_with(Redundancy::None, &refs(&imgs), &one()).unwrap();
        assert!(set.p.is_none() && set.q.is_none());
        let mut masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        masked[3] = None;
        assert!(matches!(
            reconstruct_with(Redundancy::None, &masked, &sizes, None, None, &one()).unwrap_err(),
            RedundancyError::TooManyLost { .. }
        ));
    }

    #[test]
    fn no_loss_rebuilds_nothing() {
        let imgs = images();
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        let rec = reconstruct_with(Redundancy::Raid5, &masked, &sizes, None, None, &one()).unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            generate_with::<[u8]>(Redundancy::Raid5, &[], &one()).unwrap_err(),
            RedundancyError::Empty
        ));
    }

    #[test]
    fn parity_image_is_not_a_udf_volume() {
        // §4.7: the parity payload need not parse as an image.
        let imgs = images();
        let set = generate_with(Redundancy::Raid5, &refs(&imgs), &one()).unwrap();
        let p = set.p.unwrap();
        assert!(ros_udf::SealedImage::from_bytes(p).is_err());
    }
}
