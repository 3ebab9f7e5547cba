//! Trace serialization: record compiled op lists to a portable JSON-lines
//! form and replay them later — the workflow used to compare runs across
//! configurations (same ops, different `RosConfig`).

use crate::spec::FileOp;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};

/// One serialised trace record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "lowercase")]
enum Record {
    Write { path: String, size: u64 },
    Read { path: String },
    Stat { path: String },
}

impl From<&FileOp> for Record {
    fn from(op: &FileOp) -> Self {
        match op {
            FileOp::Write { path, size } => Record::Write {
                path: path.to_string(),
                size: *size,
            },
            FileOp::Read { path } => Record::Read {
                path: path.to_string(),
            },
            FileOp::Stat { path } => Record::Stat {
                path: path.to_string(),
            },
        }
    }
}

/// Errors from trace parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// A line failed to parse as JSON.
    BadJson {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A record carried an invalid path.
    BadPath {
        /// 1-based line number.
        line: usize,
        /// The offending path.
        path: String,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::BadJson { line, message } => {
                write!(f, "line {line}: bad JSON: {message}")
            }
            TraceError::BadPath { line, path } => {
                write!(f, "line {line}: bad path {path:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Serialises an op list to JSON-lines.
#[expect(
    clippy::expect_used,
    reason = "serializing an owned record of plain fields cannot fail"
)]
pub fn to_jsonl(ops: &[FileOp]) -> String {
    let mut out = String::new();
    for op in ops {
        let rec: Record = op.into();
        out.push_str(&serde_json::to_string(&rec).expect("records serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines trace back to an op list. Blank lines and `#`
/// comments are skipped.
pub fn from_jsonl(text: &str) -> Result<Vec<FileOp>, TraceError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let rec: Record = serde_json::from_str(trimmed).map_err(|e| TraceError::BadJson {
            line,
            message: e.to_string(),
        })?;
        let parse = |p: &str| -> Result<UdfPath, TraceError> {
            p.parse().map_err(|_| TraceError::BadPath {
                line,
                path: p.to_string(),
            })
        };
        ops.push(match rec {
            Record::Write { path, size } => FileOp::Write {
                path: parse(&path)?,
                size,
            },
            Record::Read { path } => FileOp::Read {
                path: parse(&path)?,
            },
            Record::Stat { path } => FileOp::Stat {
                path: parse(&path)?,
            },
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::SizeDist;
    use crate::spec::WorkloadSpec;

    #[test]
    fn roundtrip_preserves_ops() {
        let ops = WorkloadSpec::AnalyticsReadback {
            dataset: 5,
            sizes: SizeDist::Fixed { bytes: 100 },
            reads: 10,
            skew: 1.0,
        }
        .compile(1);
        let text = to_jsonl(&ops);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = r#"
# a comment
{"op":"write","path":"/a","size":10}

{"op":"stat","path":"/a"}
{"op":"read","path":"/a"}
"#;
        let ops = from_jsonl(text).unwrap();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], FileOp::Write { .. }));
        assert!(matches!(ops[2], FileOp::Read { .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_jsonl("{\"op\":\"write\"}\n").unwrap_err();
        assert!(matches!(err, TraceError::BadJson { line: 1, .. }));
        let err = from_jsonl("{\"op\":\"read\",\"path\":\"relative\"}").unwrap_err();
        assert!(matches!(err, TraceError::BadPath { line: 1, .. }));
        let err = from_jsonl("ok\n{\"op\":\"read\",\"path\":\"/x\"}").unwrap_err();
        assert!(matches!(err, TraceError::BadJson { line: 1, .. }));
    }

    #[test]
    fn jsonl_is_stable_text() {
        let ops = vec![FileOp::Write {
            path: "/f".parse().unwrap(),
            size: 42,
        }];
        assert_eq!(
            to_jsonl(&ops),
            "{\"op\":\"write\",\"path\":\"/f\",\"size\":42}\n"
        );
    }
}
