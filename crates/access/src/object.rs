//! Object-storage interface over the OLFS namespace (§4.2's extension
//! point), in the S3 style: buckets, keyed objects, user metadata and
//! prefix listing.
//!
//! Objects live under `/.objects/<bucket>/<escaped-key>`; their metadata
//! rides in a JSON sidecar file next to the data, so a disc scan
//! recovers both (the sidecar is just another file under a unique path).

use crate::kv::{escape_key, unescape_key};
use bytes::Bytes;
use ros_olfs::mv::NAME_MAX;
use ros_olfs::{OlfsError, Ros, UdfPath};
use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Root of the object-store subtree.
pub const OBJECT_ROOT: &str = "/.objects";

/// Object metadata (the head record).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// MIME type.
    pub content_type: Option<String>,
    /// Object size in bytes.
    pub size: u64,
    /// Store-assigned version.
    pub version: u32,
    /// Free-form user metadata.
    pub user: BTreeMap<String, String>,
}

/// A fetched object.
#[derive(Clone, Debug)]
pub struct Object {
    /// The payload.
    pub data: Bytes,
    /// Its metadata.
    pub meta: ObjectMeta,
    /// Simulated latency of the fetch.
    pub latency: SimDuration,
}

/// An S3-style object store over a ROS engine.
pub struct ObjectStore {
    ros: Ros,
}

/// Prefix of the metadata sidecar's name; the escaped key follows.
const META_PREFIX: &str = ".objmeta-";

fn bucket_dir(bucket: &str) -> Result<UdfPath, OlfsError> {
    Ok(format!("{OBJECT_ROOT}/{}", escape_key(bucket)).parse()?)
}

fn data_path(bucket: &str, key: &str) -> Result<UdfPath, OlfsError> {
    Ok(bucket_dir(bucket)?.join(&escape_key(key)))
}

fn meta_path(bucket: &str, key: &str) -> Result<UdfPath, OlfsError> {
    let name = format!("{META_PREFIX}{}", escape_key(key));
    Ok(bucket_dir(bucket)?.join(&name))
}

impl ObjectStore {
    /// Wraps an engine.
    pub fn new(ros: Ros) -> Self {
        ObjectStore { ros }
    }

    /// Access to the underlying engine.
    pub fn ros(&self) -> &Ros {
        &self.ros
    }

    /// Mutable access (time control, maintenance).
    pub fn ros_mut(&mut self) -> &mut Ros {
        &mut self.ros
    }

    /// Creates a bucket (idempotent).
    pub fn create_bucket(&mut self, bucket: &str) -> Result<(), OlfsError> {
        self.ros.mkdir(&bucket_dir(bucket)?)
    }

    /// Lists buckets.
    pub fn list_buckets(&mut self) -> Result<Vec<String>, OlfsError> {
        let root: UdfPath = OBJECT_ROOT.parse()?;
        match self.ros.readdir(&root) {
            Ok(entries) => Ok(entries
                .into_iter()
                .filter(|(_, is_dir)| *is_dir)
                .map(|(name, _)| unescape_key(&name))
                .collect()),
            Err(OlfsError::NotFound(_)) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Stores an object with metadata. Overwrites create new versions.
    pub fn put_object(
        &mut self,
        bucket: &str,
        key: &str,
        data: impl Into<Bytes>,
        content_type: Option<&str>,
        user: BTreeMap<String, String>,
    ) -> Result<ObjectMeta, OlfsError> {
        let data = data.into();
        // The sidecar carries the longer of the object's two names: a key
        // it cannot hold is refused before the data file is written.
        let meta_path = meta_path(bucket, key)?;
        if meta_path.name().is_some_and(|name| name.len() > NAME_MAX) {
            return Err(OlfsError::Invalid(format!(
                "object key {key:?} escapes to more than {} bytes",
                NAME_MAX - META_PREFIX.len()
            )));
        }
        let report = self
            .ros
            .write_file(&data_path(bucket, key)?, data.clone())?;
        let meta = ObjectMeta {
            content_type: content_type.map(str::to_string),
            size: data.len() as u64,
            version: report.version,
            user,
        };
        let body = serde_json::to_vec(&meta)
            .map_err(|e| OlfsError::BadState(format!("object metadata: {e}")))?;
        self.ros.write_file(&meta_path, body)?;
        Ok(meta)
    }

    /// Fetches an object and its metadata.
    pub fn get_object(&mut self, bucket: &str, key: &str) -> Result<Object, OlfsError> {
        let data = self.ros.read_file(&data_path(bucket, key)?)?;
        let meta = self.head_object(bucket, key)?;
        Ok(Object {
            latency: data.latency,
            data: data.data,
            meta,
        })
    }

    /// Fetches only the metadata.
    pub fn head_object(&mut self, bucket: &str, key: &str) -> Result<ObjectMeta, OlfsError> {
        let raw = self.ros.read_file(&meta_path(bucket, key)?)?;
        serde_json::from_slice(&raw.data)
            .map_err(|e| OlfsError::BadState(format!("corrupt object metadata: {e}")))
    }

    /// Removes an object from the view.
    pub fn delete_object(&mut self, bucket: &str, key: &str) -> Result<(), OlfsError> {
        self.ros.unlink(&data_path(bucket, key)?)?;
        let _ = self.ros.unlink(&meta_path(bucket, key)?);
        Ok(())
    }

    /// Lists object keys in a bucket, optionally filtered by prefix.
    pub fn list_objects(
        &mut self,
        bucket: &str,
        prefix: Option<&str>,
    ) -> Result<Vec<String>, OlfsError> {
        let entries = self.ros.readdir(&bucket_dir(bucket)?)?;
        let mut keys: Vec<String> = entries
            .into_iter()
            .filter(|(name, is_dir)| !is_dir && !name.starts_with(META_PREFIX))
            .map(|(name, _)| unescape_key(&name))
            .filter(|k| prefix.map(|p| k.starts_with(p)).unwrap_or(true))
            .collect();
        keys.sort();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_olfs::RosConfig;

    fn store() -> ObjectStore {
        ObjectStore::new(Ros::new(RosConfig::tiny()))
    }

    fn meta(k: &str, v: &str) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert(k.to_string(), v.to_string());
        m
    }

    #[test]
    fn put_get_head_roundtrip() {
        let mut os = store();
        os.create_bucket("media").unwrap();
        let m = os
            .put_object(
                "media",
                "photos/cat.jpg",
                vec![0xFFu8; 5000],
                Some("image/jpeg"),
                meta("camera", "DSC-100"),
            )
            .unwrap();
        assert_eq!(m.size, 5000);
        assert_eq!(m.version, 1);
        let obj = os.get_object("media", "photos/cat.jpg").unwrap();
        assert_eq!(obj.data.len(), 5000);
        assert_eq!(obj.meta.content_type.as_deref(), Some("image/jpeg"));
        assert_eq!(obj.meta.user["camera"], "DSC-100");
        let head = os.head_object("media", "photos/cat.jpg").unwrap();
        assert_eq!(head, obj.meta);
    }

    #[test]
    fn listing_buckets_and_objects() {
        let mut os = store();
        assert!(os.list_buckets().unwrap().is_empty());
        os.create_bucket("a").unwrap();
        os.create_bucket("b bucket").unwrap();
        for key in ["logs/1", "logs/2", "img/x"] {
            os.put_object("a", key, b"x".to_vec(), None, BTreeMap::new())
                .unwrap();
        }
        let mut buckets = os.list_buckets().unwrap();
        buckets.sort();
        assert_eq!(buckets, vec!["a", "b bucket"]);
        assert_eq!(
            os.list_objects("a", None).unwrap(),
            vec!["img/x", "logs/1", "logs/2"]
        );
        assert_eq!(
            os.list_objects("a", Some("logs/")).unwrap(),
            vec!["logs/1", "logs/2"]
        );
        assert!(os.list_objects("a", Some("zzz")).unwrap().is_empty());
    }

    #[test]
    fn delete_removes_data_and_meta() {
        let mut os = store();
        os.create_bucket("t").unwrap();
        os.put_object("t", "k", b"v".to_vec(), None, BTreeMap::new())
            .unwrap();
        os.delete_object("t", "k").unwrap();
        assert!(os.get_object("t", "k").is_err());
        assert!(os.head_object("t", "k").is_err());
        assert!(os.list_objects("t", None).unwrap().is_empty());
    }

    #[test]
    fn overwrite_bumps_version() {
        let mut os = store();
        os.create_bucket("v").unwrap();
        os.put_object("v", "doc", b"one".to_vec(), None, BTreeMap::new())
            .unwrap();
        os.ros_mut().seal_open_buckets().unwrap();
        let m = os
            .put_object("v", "doc", b"two".to_vec(), None, BTreeMap::new())
            .unwrap();
        assert_eq!(m.version, 2);
        let obj = os.get_object("v", "doc").unwrap();
        assert_eq!(obj.data.as_ref(), b"two");
    }

    #[test]
    fn a_key_whose_sidecar_name_cannot_exist_is_refused_before_any_write() {
        // 247..=255 escaped bytes fit the data file's name but not
        // `.objmeta-<key>`: the object used to be stored, then the put
        // failed on the sidecar.
        let mut os = store();
        os.create_bucket("b").unwrap();
        let dir = bucket_dir("b").unwrap();
        for len in [247, 255] {
            let err = os
                .put_object("b", &"k".repeat(len), b"v".to_vec(), None, BTreeMap::new())
                .unwrap_err();
            assert!(matches!(err, OlfsError::Invalid(_)), "{len}: {err}");
            assert!(os.list_objects("b", None).unwrap().is_empty(), "{len}");
            assert!(os.ros_mut().readdir(&dir).unwrap().is_empty(), "{len}");
        }
        let longest = "k".repeat(246);
        os.put_object("b", &longest, b"v".to_vec(), None, BTreeMap::new())
            .unwrap();
        assert_eq!(os.get_object("b", &longest).unwrap().data.as_ref(), b"v");
    }

    #[test]
    fn objects_survive_burning_and_disc_scan_recovery() {
        let mut os = store();
        os.create_bucket("cold").unwrap();
        for i in 0..15 {
            os.put_object(
                "cold",
                &format!("obj-{i}"),
                vec![i as u8; 250_000],
                Some("application/octet-stream"),
                meta("seq", &i.to_string()),
            )
            .unwrap();
        }
        os.ros_mut().flush().unwrap();
        // Full disaster: rebuild the namespace from the discs; both data
        // and sidecar metadata come back (unique file paths, §4.4).
        let report = os.ros_mut().rebuild_namespace_from_discs().unwrap();
        os.ros_mut().adopt_namespace(report.mv);
        let obj = os.get_object("cold", "obj-7").unwrap();
        assert_eq!(obj.data.as_ref(), vec![7u8; 250_000].as_slice());
        assert_eq!(obj.meta.user["seq"], "7");
    }
}
