//! Per-operator observability: spans, the query profile tree, and its
//! JSON serialization.
//!
//! Every physical operator compiled by [`crate::physical::compile_profiled`]
//! gets a stable `op_id` (pre-order over the logical plan, matching the
//! line order of `plan::display`) and an [`OpSpan`] — a set of atomic
//! counters recording rows in/out, batches, wall/CPU nanos, and peak
//! state bytes. Scan leaves additionally record one entry per partition
//! actually read; those per-partition spans are merged in
//! **partition-index order** when the profile is captured, so fused and
//! baseline profiles report deterministic row counts at any parallelism.
//!
//! Span counters are written with `Ordering::Relaxed` and are only
//! mutually consistent once every worker has been joined. The engine
//! therefore captures a [`QueryProfile`] (and the global
//! [`crate::metrics::MetricsSnapshot`]) strictly *after* execution
//! completes — `collect` drops the operator tree, which joins all morsel
//! workers, before the capture runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fusion_common::{FusionError, Result, Schema};

use crate::ops::{BoxedOp, Operator};
use crate::Chunk;

/// Live, thread-shared counters for one physical operator.
///
/// All counters use relaxed atomics: workers on different morsels bump
/// them concurrently and no ordering between counters is implied while
/// the query is running (a mid-flight read may observe `rows_out` ahead
/// of `rows_in`). Totals are exact once the workers are joined, and row
/// counts are sums — independent of the interleaving — so profiles are
/// bit-identical across thread counts.
#[derive(Debug, Default)]
pub struct OpSpan {
    rows_out: AtomicU64,
    batches: AtomicU64,
    wall_nanos: AtomicU64,
    cpu_nanos: AtomicU64,
    /// Rows entering the operator from storage (scan leaves only).
    rows_in: AtomicU64,
    /// Rows emitted by the scan fragment after pushed-down filtering.
    /// Used as `rows_out` for scans inlined into a pipeline or a parallel
    /// aggregation (which have no wrapping operator to meter their output).
    scan_rows_out: AtomicU64,
    /// Partitions a scan skipped because a join's build keys excluded
    /// them (scan leaves only; static pruning is not counted here).
    pub(crate) join_pruned: AtomicU64,
    cur_state: AtomicI64,
    peak_state: AtomicI64,
    /// Per-partition row counts, keyed by partition index so capture
    /// serializes them in partition-index order regardless of which
    /// worker scanned which morsel.
    partitions: Mutex<BTreeMap<usize, PartitionSpan>>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PartitionSpan {
    rows_scanned: u64,
    rows_out: u64,
}

impl OpSpan {
    pub fn add_rows_out(&self, n: u64) {
        self.rows_out.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_wall_nanos(&self, n: u64) {
        self.wall_nanos.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_cpu_nanos(&self, n: u64) {
        self.cpu_nanos.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_join_pruned(&self) {
        self.join_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one scanned partition: `scanned` rows read from storage,
    /// `emitted` rows surviving the pushed-down filters. A poisoned map
    /// lock (a worker panicked mid-scan) is recovered rather than
    /// propagated: the counters in it are still structurally valid, and
    /// the query itself fails through the worker-join error path.
    pub fn record_partition(&self, partition: usize, scanned: u64, emitted: u64) {
        self.rows_in.fetch_add(scanned, Ordering::Relaxed);
        self.scan_rows_out.fetch_add(emitted, Ordering::Relaxed);
        let mut map = self
            .partitions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let e = map.entry(partition).or_default();
        e.rows_scanned += scanned;
        e.rows_out += emitted;
    }

    /// Track `delta` bytes of operator state (positive = reserve,
    /// negative = release) against the per-operator high-water mark.
    pub fn state_delta(&self, delta: i64) {
        let cur = self.cur_state.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak_state.fetch_max(cur, Ordering::Relaxed);
    }
}

/// Live profile tree, built at compile time; mirrors the logical plan.
#[derive(Debug)]
pub struct ProfileNode {
    pub op_id: usize,
    pub label: String,
    pub span: Arc<OpSpan>,
    /// True when the node has no wrapping physical operator (a scan
    /// inlined into a pipeline or a parallel aggregation);
    /// its `rows_out` then comes from the fragment-side counter.
    pub inlined: bool,
    pub children: Vec<ProfileNode>,
}

/// Operator wrapper that meters rows out, batches, and inclusive wall
/// time for every `next_chunk` call against the node's span.
pub struct SpannedOp {
    inner: BoxedOp,
    span: Arc<OpSpan>,
}

impl SpannedOp {
    pub fn new(inner: BoxedOp, span: Arc<OpSpan>) -> Self {
        SpannedOp { inner, span }
    }
}

impl Operator for SpannedOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        let start = Instant::now();
        let out = self.inner.next_chunk();
        self.span
            .add_wall_nanos(start.elapsed().as_nanos() as u64);
        if let Ok(Some(chunk)) = &out {
            self.span.add_batch();
            self.span.add_rows_out(chunk.len() as u64);
        }
        out
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.inner.attach_span(span);
    }
}

/// Immutable per-operator profile, captured after execution completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    pub op_id: u64,
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub batches: u64,
    pub wall_nanos: u64,
    pub cpu_nanos: u64,
    pub peak_state_bytes: i64,
    /// Per-partition scan counts, sorted by partition index. Empty for
    /// non-scan operators.
    pub partitions: Vec<PartitionProfile>,
    /// Partitions pruned by a join's build keys (scans only).
    pub join_pruned: u64,
    pub children: Vec<OpProfile>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionProfile {
    pub partition: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
}

/// The profile of one executed query: an [`OpProfile`] tree mirroring
/// the optimized plan, plus serialization and rendering helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    pub root: OpProfile,
}

impl QueryProfile {
    /// Snapshot a live profile tree. Must only be called once every
    /// worker has been joined (i.e. after the operator tree is dropped);
    /// see the module docs for the consistency argument.
    pub fn capture(node: &ProfileNode) -> QueryProfile {
        QueryProfile {
            root: capture_node(node),
        }
    }

    /// Flatten to `(op_id, label, rows_in, rows_out)` in pre-order — the
    /// parallelism-invariant portion of the profile, used by tests that
    /// assert per-operator row counts are identical across thread counts.
    pub fn row_counts(&self) -> Vec<(u64, String, u64, u64)> {
        fn walk(p: &OpProfile, out: &mut Vec<(u64, String, u64, u64)>) {
            out.push((p.op_id, p.label.clone(), p.rows_in, p.rows_out));
            for c in &p.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Render the profile as an indented tree with full span detail
    /// (timings and state are nondeterministic run to run).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, true, &mut out);
        out
    }

    /// Render only the deterministic portion of the profile: operator
    /// ids, labels, and row counts. Stable across runs and thread
    /// counts — the form golden-file tests compare.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, false, &mut out);
        out
    }

    /// Serialize to JSON (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(&self.root, &mut out);
        out
    }

    /// Parse a profile back from [`QueryProfile::to_json`] output.
    pub fn from_json(s: &str) -> Result<QueryProfile> {
        let mut p = JsonParser::new(s);
        let v = p.value()?;
        p.expect_eof()?;
        Ok(QueryProfile {
            root: op_from_json(&v)?,
        })
    }
}

fn capture_node(node: &ProfileNode) -> OpProfile {
    let children: Vec<OpProfile> = node.children.iter().map(capture_node).collect();
    let s = &node.span;
    let rows_out = if node.inlined {
        s.scan_rows_out.load(Ordering::Relaxed)
    } else {
        s.rows_out.load(Ordering::Relaxed)
    };
    // Leaves report the rows they pulled from storage; interior operators
    // consume exactly what their children emitted.
    let rows_in = if children.is_empty() {
        s.rows_in.load(Ordering::Relaxed)
    } else {
        children.iter().map(|c| c.rows_out).sum()
    };
    let partitions = s
        .partitions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&idx, p)| PartitionProfile {
            partition: idx as u64,
            rows_scanned: p.rows_scanned,
            rows_out: p.rows_out,
        })
        .collect();
    OpProfile {
        op_id: node.op_id as u64,
        label: node.label.clone(),
        rows_in,
        rows_out,
        batches: s.batches.load(Ordering::Relaxed),
        wall_nanos: s.wall_nanos.load(Ordering::Relaxed),
        cpu_nanos: s.cpu_nanos.load(Ordering::Relaxed),
        peak_state_bytes: s.peak_state.load(Ordering::Relaxed),
        partitions,
        join_pruned: s.join_pruned.load(Ordering::Relaxed),
        children,
    }
}

fn render_node(p: &OpProfile, indent: usize, timings: bool, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str(&p.label);
    out.push_str(&annotation(p, timings));
    out.push('\n');
    for c in &p.children {
        render_node(c, indent + 1, timings, out);
    }
}

/// The `[...]` span annotation appended to a plan line for this
/// operator. With `timings` the full span is shown; without, only the
/// deterministic row counts.
pub fn annotation(p: &OpProfile, timings: bool) -> String {
    let mut s = format!(
        " [id={} rows_in={} rows_out={}",
        p.op_id, p.rows_in, p.rows_out
    );
    if timings {
        s.push_str(&format!(
            " batches={} wall_ms={:.3} cpu_ms={:.3} peak_state={}B",
            p.batches,
            p.wall_nanos as f64 / 1e6,
            p.cpu_nanos as f64 / 1e6,
            p.peak_state_bytes
        ));
        if !p.partitions.is_empty() {
            s.push_str(&format!(" partitions={}", p.partitions.len()));
        }
        if p.join_pruned > 0 {
            s.push_str(&format!(" join_pruned={}", p.join_pruned));
        }
    }
    s.push(']');
    s
}

fn write_json(p: &OpProfile, out: &mut String) {
    out.push_str(&format!(
        "{{\"op_id\":{},\"label\":\"{}\",\"rows_in\":{},\"rows_out\":{},\"batches\":{},\
         \"wall_nanos\":{},\"cpu_nanos\":{},\"peak_state_bytes\":{},\"partitions\":[",
        p.op_id,
        escape_json(&p.label),
        p.rows_in,
        p.rows_out,
        p.batches,
        p.wall_nanos,
        p.cpu_nanos,
        p.peak_state_bytes,
    ));
    for (i, part) in p.partitions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"partition\":{},\"rows_scanned\":{},\"rows_out\":{}}}",
            part.partition, part.rows_scanned, part.rows_out
        ));
    }
    out.push(']');
    if p.join_pruned > 0 {
        out.push_str(&format!(",\"join_pruned\":{}", p.join_pruned));
    }
    out.push_str(",\"children\":[");
    for (i, c) in p.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json(c, out);
    }
    out.push_str("]}");
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON value for the round-trip parser.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Int(i64),
}

impl Json {
    fn field<'a>(&'a self, name: &str) -> Result<&'a Json> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| {
                    FusionError::Execution(format!("profile json: missing field {name:?}"))
                }),
            _ => Err(FusionError::Execution(format!(
                "profile json: expected object while reading {name:?}"
            ))),
        }
    }

    fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => Err(FusionError::Execution(
                "profile json: expected a non-negative integer".into(),
            )),
        }
    }

    fn as_i64(&self) -> Result<i64> {
        match self {
            Json::Int(i) => Ok(*i),
            _ => Err(FusionError::Execution(
                "profile json: expected an integer".into(),
            )),
        }
    }

    fn as_str(&self) -> Result<&str> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err(FusionError::Execution(
                "profile json: expected a string".into(),
            )),
        }
    }

    fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Array(v) => Ok(v),
            _ => Err(FusionError::Execution(
                "profile json: expected an array".into(),
            )),
        }
    }
}

fn op_from_json(v: &Json) -> Result<OpProfile> {
    let partitions = v
        .field("partitions")?
        .as_array()?
        .iter()
        .map(|p| {
            Ok(PartitionProfile {
                partition: p.field("partition")?.as_u64()?,
                rows_scanned: p.field("rows_scanned")?.as_u64()?,
                rows_out: p.field("rows_out")?.as_u64()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let children = v
        .field("children")?
        .as_array()?
        .iter()
        .map(op_from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok(OpProfile {
        op_id: v.field("op_id")?.as_u64()?,
        label: v.field("label")?.as_str()?.to_string(),
        rows_in: v.field("rows_in")?.as_u64()?,
        rows_out: v.field("rows_out")?.as_u64()?,
        batches: v.field("batches")?.as_u64()?,
        wall_nanos: v.field("wall_nanos")?.as_u64()?,
        cpu_nanos: v.field("cpu_nanos")?.as_u64()?,
        peak_state_bytes: v.field("peak_state_bytes")?.as_i64()?,
        partitions,
        join_pruned: v.field("join_pruned").map_or(Ok(0), Json::as_u64)?,
        children,
    })
}

/// Recursive-descent parser for the JSON subset `to_json` emits
/// (objects, arrays, strings with escapes, integers).
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> FusionError {
        FusionError::Execution(format!("profile json at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().is_none() {
            Ok(())
        } else {
            Err(self.err("trailing input"))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: find the full scalar in the source.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        s.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn leaf(op_id: u64, label: &str) -> OpProfile {
        OpProfile {
            op_id,
            label: label.into(),
            rows_in: 100,
            rows_out: 42,
            batches: 3,
            wall_nanos: 1_234_567,
            cpu_nanos: 890_123,
            peak_state_bytes: 4096,
            partitions: vec![
                PartitionProfile {
                    partition: 0,
                    rows_scanned: 60,
                    rows_out: 20,
                },
                PartitionProfile {
                    partition: 1,
                    rows_scanned: 40,
                    rows_out: 22,
                },
            ],
            join_pruned: 5,
            children: vec![],
        }
    }

    #[test]
    fn json_round_trips() {
        let profile = QueryProfile {
            root: OpProfile {
                op_id: 0,
                label: "Filter: a\"quoted\" > 5".into(),
                rows_in: 42,
                rows_out: 7,
                batches: 1,
                wall_nanos: 999,
                cpu_nanos: 0,
                peak_state_bytes: 0,
                partitions: vec![],
                join_pruned: 0,
                children: vec![leaf(1, "Scan: t cols=[a1]")],
            },
        };
        let json = profile.to_json();
        let back = QueryProfile::from_json(&json).unwrap();
        assert_eq!(back, profile);
        // And serializing again is byte-stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(QueryProfile::from_json("").is_err());
        assert!(QueryProfile::from_json("{\"op_id\":0}").is_err());
        assert!(QueryProfile::from_json("[1,2,3]").is_err());
        assert!(QueryProfile::from_json("{\"op_id\":0,").is_err());
    }

    #[test]
    fn span_tracks_peak_state() {
        let span = OpSpan::default();
        span.state_delta(100);
        span.state_delta(200);
        span.state_delta(-250);
        span.state_delta(10);
        assert_eq!(span.peak_state.load(Ordering::Relaxed), 300);
        assert_eq!(span.cur_state.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn capture_merges_partitions_in_index_order() {
        let span = Arc::new(OpSpan::default());
        // Record out of partition order, as parallel workers would.
        span.record_partition(2, 30, 10);
        span.record_partition(0, 10, 5);
        span.record_partition(1, 20, 7);
        let node = ProfileNode {
            op_id: 0,
            label: "Scan: t cols=[]".into(),
            span,
            inlined: true,
            children: vec![],
        };
        let p = QueryProfile::capture(&node);
        assert_eq!(p.root.rows_in, 60);
        assert_eq!(p.root.rows_out, 22);
        let idx: Vec<u64> = p.root.partitions.iter().map(|x| x.partition).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn row_counts_flattens_preorder() {
        let p = QueryProfile {
            root: OpProfile {
                children: vec![leaf(1, "a"), leaf(2, "b")],
                ..leaf(0, "root")
            },
        };
        let ids: Vec<u64> = p.row_counts().iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn stable_render_has_no_timings() {
        let p = QueryProfile { root: leaf(0, "Scan: t") };
        let stable = p.render_stable();
        assert!(stable.contains("rows_in=100"));
        assert!(stable.contains("rows_out=42"));
        assert!(!stable.contains("wall_ms"));
        assert!(p.render().contains("wall_ms"));
        assert!(p.render().contains("join_pruned=5"));
    }
}
