//! Key-value interface over the OLFS namespace.
//!
//! §4.2: "This namespace mapping mechanism can also be extended to
//! support other mainstream access interfaces such as key-value,
//! objected storage, and REST." Keys become global file paths under a
//! dedicated subtree, spread across hash buckets so directory fan-out
//! stays bounded; values get OLFS's full pipeline — buckets, parity,
//! burning, versioning and recovery — for free.

use bytes::Bytes;
use ros_olfs::{OlfsError, Ros, UdfPath};
use ros_sim::SimDuration;

/// Root of the KV subtree in the global namespace.
pub(crate) const KV_ROOT: &str = "/.kv";

/// Number of hash buckets (directories) keys spread over.
const KV_BUCKETS: u64 = 256;

/// Escapes a key into a single path component (percent-encoding
/// everything outside `[A-Za-z0-9_.-]`, and the dot-prefix that would
/// collide with internal names).
pub(crate) fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for (i, b) in key.bytes().enumerate() {
        let plain = b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || (b == b'.' && i > 0);
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    if out.is_empty() {
        // The empty key gets a sentinel that normal keys cannot produce
        // ('~' is always percent-encoded above).
        out.push_str("~empty~");
    }
    out
}

fn key_path(key: &str) -> Result<UdfPath, OlfsError> {
    let bucket = ros_sim::fnv1a(key.as_bytes()) % KV_BUCKETS;
    Ok(format!("{KV_ROOT}/{bucket:03}/{}", escape_key(key)).parse()?)
}

/// Result of a KV operation with its simulated latency.
#[derive(Clone, Debug)]
pub struct KvResponse {
    /// The value (empty for put/delete).
    pub value: Bytes,
    /// End-to-end simulated latency.
    pub latency: SimDuration,
}

/// A key-value store over a ROS engine.
pub struct KvStore {
    ros: Ros,
}

impl KvStore {
    /// Wraps an engine.
    pub fn new(ros: Ros) -> Self {
        KvStore { ros }
    }

    /// Unwraps the engine.
    pub fn into_ros(self) -> Ros {
        self.ros
    }

    /// Stores a value; repeated puts create versions (§4.6 semantics).
    pub fn put(&mut self, key: &str, value: impl Into<Bytes>) -> Result<KvResponse, OlfsError> {
        let report = self.ros.write_file(&key_path(key)?, value)?;
        Ok(KvResponse {
            value: Bytes::new(),
            latency: report.latency,
        })
    }

    /// Fetches the newest value of a key.
    pub fn get(&mut self, key: &str) -> Result<KvResponse, OlfsError> {
        let report = self.ros.read_file(&key_path(key)?)?;
        Ok(KvResponse {
            value: report.data,
            latency: report.latency,
        })
    }

    /// Lists every stored key (scans the hash buckets; keys come back
    /// unescaped, unordered across buckets).
    pub fn keys(&mut self) -> Result<Vec<String>, OlfsError> {
        let root: UdfPath = KV_ROOT.parse()?;
        let mut out = Vec::new();
        let buckets = match self.ros.readdir(&root) {
            Ok(b) => b,
            Err(OlfsError::NotFound(_)) => return Ok(out),
            Err(e) => return Err(e),
        };
        for (bucket, is_dir) in buckets {
            if !is_dir {
                continue;
            }
            let dir = root.join(&bucket);
            for (name, is_dir) in self.ros.readdir(&dir)? {
                if !is_dir {
                    out.push(unescape_key(&name));
                }
            }
        }
        Ok(out)
    }
}

/// Reverses [`escape_key`].
pub(crate) fn unescape_key(escaped: &str) -> String {
    if escaped == "~empty~" {
        return String::new();
    }
    let bytes = escaped.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(&h), Some(&l)) = (bytes.get(i + 1), bytes.get(i + 2)) {
                let hex = |c: u8| (c as char).to_digit(16).and_then(|d| u8::try_from(d).ok());
                if let (Some(h), Some(l)) = (hex(h), hex(l)) {
                    out.push(h * 16 + l);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_olfs::RosConfig;

    fn store() -> KvStore {
        KvStore::new(Ros::new(RosConfig::tiny()))
    }

    #[test]
    fn put_get_roundtrip() {
        let mut kv = store();
        kv.put("sensor/2026-07-06", b"42.1".to_vec()).unwrap();
        let got = kv.get("sensor/2026-07-06").unwrap();
        assert_eq!(got.value.as_ref(), b"42.1");
        assert!(got.latency < SimDuration::from_millis(20));
    }

    #[test]
    fn puts_create_versions() {
        let mut kv = store();
        kv.put("k", b"v1".to_vec()).unwrap();
        kv.ros.seal_open_buckets().unwrap();
        kv.put("k", b"v2".to_vec()).unwrap();
        assert_eq!(kv.get("k").unwrap().value.as_ref(), b"v2");
        let path = key_path("k").unwrap();
        assert_eq!(kv.ros.read_version(&path, 1).unwrap().data.as_ref(), b"v1");
    }

    #[test]
    fn weird_keys_are_safe() {
        let mut kv = store();
        let keys = [
            "with spaces and / slashes",
            "../../etc/passwd",
            "unicode-ключ-钥匙",
            ".leading.dot",
            "",
        ];
        for (i, key) in keys.iter().enumerate() {
            kv.put(key, vec![i as u8; 10]).unwrap();
        }
        for (i, key) in keys.iter().enumerate() {
            let got = kv.get(key).unwrap();
            assert_eq!(got.value.as_ref(), vec![i as u8; 10].as_slice(), "{key:?}");
        }
        let mut listed = kv.keys().unwrap();
        listed.sort();
        let mut expected: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        expected.sort();
        assert_eq!(listed, expected);
    }

    #[test]
    fn escape_is_reversible() {
        for key in [
            "a/b",
            "%41",
            "x y",
            "..",
            "ключ",
            "plain-key_1.txt",
            "",
            "~empty~",
        ] {
            assert_eq!(unescape_key(&escape_key(key)), key, "{key:?}");
        }
    }

    #[test]
    fn values_survive_burning() {
        let mut kv = store();
        for i in 0..20 {
            kv.put(&format!("archive/item-{i}"), vec![i as u8; 300_000])
                .unwrap();
        }
        kv.ros.flush().unwrap();
        kv.ros.evict_burned_copies();
        kv.ros.unload_all_bays().unwrap();
        let got = kv.get("archive/item-7").unwrap();
        assert_eq!(got.value.as_ref(), vec![7u8; 300_000].as_slice());
        assert!(
            got.latency > SimDuration::from_secs(60),
            "cold get is mechanical"
        );
    }
}
