//! Spans around the calls the benchmark makes, kept in memory and
//! written out when the traced run ends.
//!
//! The benchmark can only see the layer boundary it calls through, so
//! a span here is one public call (or one replayed kernel), its layer
//! the crate that owns the function. Spans *inside* the program are
//! ROADMAP item 4, not this benchmark.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Repetition the span belongs to.
    pub rep: u32,
    /// The op the span serves; spans of one op share it. `None` for
    /// the repetition and phase spans that group ops.
    pub op_id: Option<u32>,
    /// Crate that owns the called function (`bench` for grouping spans).
    pub layer: &'static str,
    /// The called function.
    pub func: &'static str,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

/// An append-only span log.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates an empty log with room for `capacity` spans, so pushes
    /// between timed intervals do not reallocate.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        rep: u32,
        op_id: Option<u32>,
        (layer, func): (&'static str, &'static str),
        (start, end): (Instant, Instant),
        parent: Option<u32>,
    ) -> u32 {
        let span = Span {
            rep,
            op_id,
            layer,
            func,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("span log stays below u32::MAX")
    }

    /// Opens a grouping span whose end is not known yet.
    pub fn open(
        &mut self,
        rep: u32,
        names: (&'static str, &'static str),
        start: Instant,
        parent: Option<u32>,
    ) -> u32 {
        self.record(rep, None, names, (start, start), parent)
    }

    /// Sets the end of a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks the log is a forest a reader can walk: every parent is an
    /// earlier span of the same repetition whose interval encloses the
    /// child's, and an op's span hangs under a grouping span or under
    /// another span of the same op.
    pub fn check(&self) -> Result<(), String> {
        check(&self.spans)
    }

    /// Writes the log to `path`, creating its directory.
    pub fn write_file(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(workload, &mut out)?;
        out.flush()
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"workload\":\"{workload}\",\"rep\":{},\"op_id\":{},\"layer\":\"{}\",\
                 \"fn\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.rep,
                opt(s.op_id),
                s.layer,
                s.func,
                s.start_ns,
                s.end_ns,
                opt(s.parent)
            )?;
        }
        Ok(())
    }
}

fn check(spans: &[Span]) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {id} ends before it starts"));
        }
        let Some(parent) = s.parent else {
            if s.op_id.is_some() {
                return Err(format!("span {id} serves an op but has no parent"));
            }
            continue;
        };
        let Some(p) = spans
            .get(parent as usize)
            .filter(|_| (parent as usize) < id)
        else {
            return Err(format!(
                "span {id} names parent {parent}, which is not earlier"
            ));
        };
        if p.rep != s.rep {
            return Err(format!(
                "span {id} and its parent are in different repetitions"
            ));
        }
        if p.start_ns > s.start_ns || p.end_ns < s.end_ns {
            return Err(format!("span {id} is not enclosed by its parent {parent}"));
        }
        if p.op_id.is_some() && p.op_id != s.op_id {
            return Err(format!("span {id} hangs under a span of another op"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: Option<u32>, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            rep: 0,
            op_id,
            layer: "olfs",
            func: "f",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn accepts_a_rep_phase_op_tree() {
        let spans = [
            span(None, 0, 100, None),
            span(None, 10, 90, Some(0)),
            span(Some(0), 20, 30, Some(1)),
            span(Some(0), 22, 28, Some(2)),
            span(Some(1), 40, 50, Some(1)),
        ];
        assert_eq!(check(&spans), Ok(()));
    }

    #[test]
    fn rejects_malformed_parents_and_op_ids() {
        let forward = [span(None, 0, 10, Some(1)), span(None, 0, 10, None)];
        assert!(check(&forward).is_err());
        let escapes = [span(None, 0, 10, None), span(Some(0), 5, 11, Some(0))];
        assert!(check(&escapes).is_err());
        let orphan_op = [span(Some(0), 0, 10, None)];
        assert!(check(&orphan_op).is_err());
        let cross_op = [
            span(None, 0, 10, None),
            span(Some(0), 1, 9, Some(0)),
            span(Some(1), 2, 8, Some(1)),
        ];
        assert!(check(&cross_op).is_err());
        let mut other_rep = [span(None, 0, 10, None), span(Some(0), 1, 9, Some(0))];
        other_rep[1].rep = 1;
        assert!(check(&other_rep).is_err());
        let backwards = [span(None, 10, 0, None)];
        assert!(check(&backwards).is_err());
    }

    #[test]
    fn open_close_and_jsonl_round_trip() {
        let mut log = SpanLog::with_capacity(4);
        let t0 = Instant::now();
        let root = log.open(3, ("bench", "rep"), t0, None);
        let t1 = Instant::now();
        log.record(3, Some(7), ("access", "write_file"), (t0, t1), Some(root));
        log.close(root, Instant::now());
        assert_eq!(log.check(), Ok(()));
        let mut out = Vec::new();
        log.write_jsonl("ingest_burn", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0]
            .starts_with("{\"id\":0,\"workload\":\"ingest_burn\",\"rep\":3,\"op_id\":null,"));
        assert!(lines[1].contains("\"op_id\":7,\"layer\":\"access\",\"fn\":\"write_file\""));
        assert!(lines[1].ends_with("\"parent\":0}"));
    }
}
