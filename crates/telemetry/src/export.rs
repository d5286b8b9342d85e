//! Telemetry exporters: JSON-lines and Prometheus-style text.
//!
//! Both formats are hand-rolled (the crate is dependency-free) and fully
//! deterministic: keys are emitted in a fixed order and times are integer
//! nanoseconds, so a [`CycleRecord`] survives a write/parse round trip
//! bit-for-bit. The JSONL parser is defensive — truncated or corrupt input
//! yields a [`TelemetryParseError`], never a panic — because benchmark
//! artifacts get concatenated, grepped and truncated by shell pipelines.

use std::fmt::{self, Write as _};

use crate::attr::{AssertionKind, AssertionOverhead, KindOverhead};
use crate::census::{CensusData, CensusEntry, DriftScope, HeapCensus, PROM_TOP_N};
use crate::hist::LatencyHistogram;
use crate::record::{CycleKind, CycleRecord, GcPhase, GcTelemetry};

/// One parsed JSONL line: the cycle record plus its optional benchmark
/// label and — for fleet (multi-VM) logs — the shard that produced it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JsonlRecord {
    /// The `"bench"` label the line carried, if any.
    pub bench: Option<String>,
    /// The `"shard"` index the line carried, if any (fleet logs only).
    pub shard: Option<u64>,
    /// The cycle record itself.
    pub record: CycleRecord,
}

/// A JSONL decode failure. Line numbers are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryParseError {
    /// The line ended in the middle of a value.
    Truncated {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// An unexpected byte at a known offset.
    Unexpected {
        /// 1-based line number of the offending line.
        line: usize,
        /// Byte offset within the line.
        offset: usize,
    },
    /// A known field held a value of the wrong JSON type.
    WrongType {
        /// 1-based line number of the offending line.
        line: usize,
        /// The field whose value had the wrong type.
        field: &'static str,
    },
}

impl fmt::Display for TelemetryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryParseError::Truncated { line } => {
                write!(f, "line {line}: truncated record")
            }
            TelemetryParseError::Unexpected { line, offset } => {
                write!(f, "line {line}: unexpected byte at offset {offset}")
            }
            TelemetryParseError::WrongType { line, field } => {
                write!(f, "line {line}: field {field:?} has the wrong type")
            }
        }
    }
}

impl std::error::Error for TelemetryParseError {}

// ---------------------------------------------------------------------------
// JSONL writer
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a quoted JSON string (RFC 8259 escapes) — the
/// workspace's one JSON string escaper.
pub fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_kind_overhead(out: &mut String, label: &str, k: &KindOverhead) {
    out.push('"');
    out.push_str(label);
    out.push_str("\":{");
    out.push_str(&format!(
        "\"registered\":{},\"header_bit_checks\":{},\"counter_bumps\":{},\
         \"extra_edges_traced\":{},\"phase_work\":{}",
        k.registered, k.header_bit_checks, k.counter_bumps, k.extra_edges_traced, k.phase_work
    ));
    out.push('}');
}

fn push_census_entries(out: &mut String, key: &str, entries: &[CensusEntry]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_json(&e.name, out);
        out.push_str(&format!(
            ",\"objects\":{},\"bytes\":{}}}",
            e.objects, e.bytes
        ));
    }
    out.push(']');
}

/// Serializes one cycle record as a single JSON object (no trailing
/// newline). Keys appear in a fixed order; the `"bench"` label is emitted
/// first when present; the `"overhead"` object lists only kinds that did
/// work (an all-zero attribution serializes as `"overhead":{}`); the
/// `"census"` object is emitted only when the record carries one.
pub fn record_to_json(record: &CycleRecord, bench: Option<&str>) -> String {
    record_to_json_tagged(record, bench, None)
}

/// As [`record_to_json`], additionally tagging the line with the shard
/// index that produced it (emitted right after `"bench"`). Fleet soak
/// logs use this so per-shard streams stay attributable after merging.
pub(crate) fn record_to_json_tagged(
    record: &CycleRecord,
    bench: Option<&str>,
    shard: Option<u64>,
) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    if let Some(b) = bench {
        out.push_str("\"bench\":");
        escape_json(b, &mut out);
        out.push(',');
    }
    if let Some(s) = shard {
        out.push_str(&format!("\"shard\":{s},"));
    }
    out.push_str(&format!(
        "\"seq\":{},\"kind\":\"{}\",\"total_ns\":{},\"pre_root_ns\":{},\
         \"mark_ns\":{},\"sweep_ns\":{},\"objects_marked\":{},\"edges_traced\":{},\
         \"pre_root_edges\":{},\"objects_swept\":{},\"words_swept\":{},\
         \"promoted\":{},\"violations\":{}",
        record.seq,
        record.kind.label(),
        record.total_ns,
        record.pre_root_ns,
        record.mark_ns,
        record.sweep_ns,
        record.objects_marked,
        record.edges_traced,
        record.pre_root_edges,
        record.objects_swept,
        record.words_swept,
        record.promoted,
        record.violations,
    ));
    out.push_str(",\"worker_mark_ns\":[");
    for (i, ns) in record.worker_mark_ns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ns.to_string());
    }
    out.push_str("],\"overhead\":{");
    let mut first = true;
    for kind in AssertionKind::ALL {
        let k = record.overhead.kind(kind);
        if k.is_zero() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        push_kind_overhead(&mut out, kind.label(), k);
    }
    out.push('}');
    if let Some(census) = &record.census {
        out.push_str(",\"census\":{");
        push_census_entries(&mut out, "classes", &census.classes);
        out.push(',');
        push_census_entries(&mut out, "sites", &census.sites);
        out.push('}');
    }
    out.push('}');
    out
}

/// Serializes records as JSON lines — one object per line, trailing
/// newline after each — optionally labelling every line with a benchmark
/// name.
pub fn records_to_jsonl(records: &[CycleRecord], bench: Option<&str>) -> String {
    records_to_jsonl_tagged(records, bench, None)
}

/// As [`records_to_jsonl`], tagging every line with a shard index.
pub fn records_to_jsonl_tagged(
    records: &[CycleRecord],
    bench: Option<&str>,
    shard: Option<u64>,
) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record_to_json_tagged(record, bench, shard));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSONL parser — minimal recursive-descent JSON, defensive by design
// ---------------------------------------------------------------------------

/// The subset of JSON values the telemetry schema uses.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    /// All schema numbers are unsigned integers; anything else (floats,
    /// negatives) is decoded as `Null` so known fields reject it as a
    /// wrong type instead of silently truncating.
    Int(u64),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
    Bool(bool),
    Null,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

const MAX_DEPTH: usize = 16;

impl<'a> Parser<'a> {
    fn new(s: &'a str, line: usize) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            line,
        }
    }

    fn truncated(&self) -> TelemetryParseError {
        TelemetryParseError::Truncated { line: self.line }
    }

    fn unexpected(&self) -> TelemetryParseError {
        TelemetryParseError::Unexpected {
            line: self.line,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TelemetryParseError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.unexpected()),
            None => Err(self.truncated()),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Val, TelemetryParseError> {
        if depth > MAX_DEPTH {
            return Err(self.unexpected());
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.truncated()),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => self.parse_string().map(Val::Str),
            Some(b't') => self.parse_keyword("true", Val::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Val::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Val::Null),
            Some(b'0'..=b'9') => self.parse_number(),
            Some(b'-') => {
                // Negative numbers are outside the schema: consume and
                // surface as Null so typed lookups reject them.
                self.pos += 1;
                self.parse_number()?;
                Ok(Val::Null)
            }
            Some(_) => Err(self.unexpected()),
        }
    }

    fn parse_keyword(&mut self, word: &str, val: Val) -> Result<Val, TelemetryParseError> {
        let end = self.pos + word.len();
        if end > self.bytes.len() {
            return Err(self.truncated());
        }
        if &self.bytes[self.pos..end] == word.as_bytes() {
            self.pos = end;
            Ok(val)
        } else {
            Err(self.unexpected())
        }
    }

    fn parse_number(&mut self) -> Result<Val, TelemetryParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return match self.peek() {
                None => Err(self.truncated()),
                Some(_) => Err(self.unexpected()),
            };
        }
        // A fraction or exponent makes this a float — outside the schema.
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E')
            ) {
                self.pos += 1;
            }
            return Ok(Val::Null);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        match text.parse::<u64>() {
            Ok(n) => Ok(Val::Int(n)),
            Err(_) => Ok(Val::Null), // overflow: treat as untyped
        }
    }

    fn parse_string(&mut self) -> Result<String, TelemetryParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.truncated()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(self.truncated()),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.truncated());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.unexpected())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| self.unexpected())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        Some(_) => return Err(self.unexpected()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is valid inside strings; advance by
                    // whole characters using the source str's boundaries.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.unexpected())?;
                    let c = rest.chars().next().ok_or_else(|| self.truncated())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Val, TelemetryParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                Some(_) => return Err(self.unexpected()),
                None => return Err(self.truncated()),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Val, TelemetryParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                Some(_) => return Err(self.unexpected()),
                None => return Err(self.truncated()),
            }
        }
    }
}

impl Val {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Int(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parsed JSON object and the typed accessors the schema reads it by.
/// An absent key reads as the schema's default; a value of the wrong JSON
/// type is a [`TelemetryParseError::WrongType`] naming the field.
struct Fields<'v> {
    fields: &'v [(String, Val)],
    line: usize,
}

impl<'v> Fields<'v> {
    fn of(val: &'v Val, line: usize) -> Option<Fields<'v>> {
        match val {
            Val::Obj(fields) => Some(Fields { fields, line }),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<&'v Val> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn wrong(&self, field: &'static str) -> TelemetryParseError {
        TelemetryParseError::WrongType {
            line: self.line,
            field,
        }
    }

    /// `key`'s value through `as_t`, `None` when absent or (if `nullable`)
    /// `null`; a value `as_t` rejects is the wrong type for `field`.
    fn get_as<T>(
        &self,
        key: &str,
        field: &'static str,
        nullable: bool,
        as_t: impl FnOnce(&'v Val) -> Option<T>,
    ) -> Result<Option<T>, TelemetryParseError> {
        match self.get(key) {
            None => Ok(None),
            Some(Val::Null) if nullable => Ok(None),
            Some(v) => as_t(v).map(Some).ok_or_else(|| self.wrong(field)),
        }
    }

    /// An unsigned integer; absent reads 0.
    fn u64(&self, key: &'static str) -> Result<u64, TelemetryParseError> {
        Ok(self.get_as(key, key, false, Val::as_u64)?.unwrap_or(0))
    }

    /// A nested object, `None` when absent (or `null`, if `nullable`).
    fn object(
        &self,
        key: &str,
        field: &'static str,
        nullable: bool,
    ) -> Result<Option<Fields<'v>>, TelemetryParseError> {
        self.get_as(key, field, nullable, |v| Fields::of(v, self.line))
    }

    /// A census entry list; absent reads empty.
    fn census_entries(&self, key: &str) -> Result<Vec<CensusEntry>, TelemetryParseError> {
        let Some(items) = self.get_as(key, "census", false, |v| match v {
            Val::Arr(items) => Some(items),
            _ => None,
        })?
        else {
            return Ok(Vec::new());
        };
        items
            .iter()
            .map(|item| {
                let e = Fields::of(item, self.line).ok_or_else(|| self.wrong("census"))?;
                let name = e.get("name").and_then(Val::as_str);
                Ok(CensusEntry {
                    name: name.ok_or_else(|| self.wrong("census"))?.to_owned(),
                    objects: e.u64("objects")?,
                    bytes: e.u64("bytes")?,
                })
            })
            .collect()
    }
}

fn decode_record(f: &Fields<'_>) -> Result<JsonlRecord, TelemetryParseError> {
    let bench = f.get_as("bench", "bench", true, Val::as_str)?;
    let shard = f.get_as("shard", "shard", true, Val::as_u64)?;
    let kind = f.get_as("kind", "kind", false, |v| match v.as_str()? {
        "major" => Some(CycleKind::Major),
        "minor" => Some(CycleKind::Minor),
        _ => None,
    })?;
    let worker_mark_ns = f.get_as("worker_mark_ns", "worker_mark_ns", false, |v| match v {
        Val::Arr(items) => items.iter().map(Val::as_u64).collect(),
        _ => None,
    })?;
    let mut overhead = AssertionOverhead::default();
    if let Some(kinds) = f.object("overhead", "overhead", false)? {
        for kind in AssertionKind::ALL {
            if let Some(k) = kinds.object(kind.label(), "overhead", false)? {
                *overhead.kind_mut(kind) = KindOverhead {
                    registered: k.u64("registered")?,
                    header_bit_checks: k.u64("header_bit_checks")?,
                    counter_bumps: k.u64("counter_bumps")?,
                    extra_edges_traced: k.u64("extra_edges_traced")?,
                    phase_work: k.u64("phase_work")?,
                };
            }
        }
    }
    let census = match f.object("census", "census", true)? {
        None => None,
        Some(c) => Some(CensusData {
            classes: c.census_entries("classes")?,
            sites: c.census_entries("sites")?,
        }),
    };
    Ok(JsonlRecord {
        bench: bench.map(str::to_owned),
        shard,
        record: CycleRecord {
            seq: f.u64("seq")?,
            kind: kind.unwrap_or(CycleKind::Major),
            total_ns: f.u64("total_ns")?,
            pre_root_ns: f.u64("pre_root_ns")?,
            mark_ns: f.u64("mark_ns")?,
            sweep_ns: f.u64("sweep_ns")?,
            objects_marked: f.u64("objects_marked")?,
            edges_traced: f.u64("edges_traced")?,
            pre_root_edges: f.u64("pre_root_edges")?,
            objects_swept: f.u64("objects_swept")?,
            words_swept: f.u64("words_swept")?,
            promoted: f.u64("promoted")?,
            violations: f.u64("violations")?,
            worker_mark_ns: worker_mark_ns.unwrap_or_default(),
            overhead,
            census,
        },
    })
}

/// Parses JSONL telemetry text back into records. Blank lines are
/// skipped; unknown keys are ignored (forward compatibility); any
/// malformed line yields an error naming the 1-based line number. Never
/// panics, whatever the input.
pub fn parse_jsonl(text: &str) -> Result<Vec<JsonlRecord>, TelemetryParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut parser = Parser::new(raw, line);
        let value = parser.parse_value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.unexpected());
        }
        let Some(fields) = Fields::of(&value, line) else {
            return Err(TelemetryParseError::WrongType {
                line,
                field: "<record>",
            });
        };
        out.push(decode_record(&fields)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Prometheus exporter — the one writer of the text exposition format
// ---------------------------------------------------------------------------

/// One label: its name and its value. [`Family`] escapes the value as the
/// exposition format requires, so a hostile class or site name can never
/// break a scrape.
pub type Label<'a> = (&'a str, &'a dyn fmt::Display);

/// The metric type a family declares on its TYPE line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// A count that only grows.
    Counter,
    /// A value that goes up and down.
    Gauge,
    /// `_bucket`/`_sum`/`_count` series, written by [`Family::histogram`].
    Histogram,
}

/// A family that holds one integer per series: name, help text, type and
/// the series' value. [`push_rows`] renders a table of them.
pub type Row<T> = (&'static str, &'static str, MetricType, fn(&T) -> u64);

/// Nanoseconds shown as decimal seconds with full nanosecond precision,
/// by integer arithmetic only, so output is deterministic across
/// platforms (no float formatting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seconds(pub u64);

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:09}",
            self.0 / 1_000_000_000,
            self.0 % 1_000_000_000
        )
    }
}

/// One metric family being written into a caller's buffer: the
/// workspace's one writer of the Prometheus text exposition format.
/// [`Family::start`] writes the HELP and TYPE lines; the family's samples
/// are then written through the handle, which holds the buffer, so no
/// other family's lines can come between them.
#[derive(Debug)]
pub struct Family<'o> {
    out: &'o mut String,
    name: &'o str,
}

impl<'o> Family<'o> {
    /// Writes the HELP and TYPE lines of family `name`.
    pub fn start(out: &'o mut String, name: &'o str, help: &str, ty: MetricType) -> Family<'o> {
        let ty = match ty {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        };
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {ty}\n");
        Family { out, name }
    }

    /// Writes one sample whose label set is `prefix` followed by `labels`
    /// (no braces when both are empty).
    pub fn sample(&mut self, prefix: &[Label<'_>], labels: &[Label<'_>], value: impl fmt::Display) {
        self.series("", prefix, labels, value);
    }

    /// Writes one histogram's `_bucket`/`_sum`/`_count` series under
    /// `prefix`. Buckets are written up to the highest non-empty one, then
    /// `+Inf`.
    pub fn histogram(&mut self, prefix: &[Label<'_>], hist: &LatencyHistogram) {
        let mut cumulative = 0u64;
        if let Some(max) = hist.max_bucket() {
            for (i, &c) in hist.bucket_counts().iter().enumerate().take(max + 1) {
                cumulative += c;
                let le = Seconds(LatencyHistogram::bucket_upper_bound(i));
                self.series("_bucket", prefix, &[("le", &le)], cumulative);
            }
        }
        self.series("_bucket", prefix, &[("le", &"+Inf")], hist.count());
        self.series("_sum", prefix, &[], Seconds(hist.sum_ns()));
        self.series("_count", prefix, &[], hist.count());
    }

    fn series(
        &mut self,
        suffix: &str,
        prefix: &[Label<'_>],
        labels: &[Label<'_>],
        value: impl fmt::Display,
    ) {
        let out = &mut *self.out;
        out.push_str(self.name);
        out.push_str(suffix);
        for (i, (key, label)) in prefix.iter().chain(labels).enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(key);
            out.push_str("=\"");
            let _ = write!(LabelValue(out), "{label}");
            out.push('"');
        }
        if !(prefix.is_empty() && labels.is_empty()) {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Writes a label value with backslash, double quote and newline escaped
/// as `\\`, `\"` and `\n`; everything else (other control characters,
/// UTF-8) passes through verbatim, as the exposition format specifies.
struct LabelValue<'a>(&'a mut String);

impl fmt::Write for LabelValue<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Renders a table: one family per row, one sample per `(prefix, source)`
/// series in each.
pub fn push_rows<T>(out: &mut String, rows: &[Row<T>], series: &[(&[Label<'_>], &T)]) {
    for &(name, help, ty, value) in rows {
        let mut family = Family::start(out, name, help, ty);
        for (prefix, source) in series {
            family.sample(prefix, &[], value(source));
        }
    }
}

const TELEMETRY_COUNTS: [Row<GcTelemetry>; 3] = [
    (
        "gca_gc_cycles_total",
        "Major collection cycles observed.",
        MetricType::Counter,
        GcTelemetry::cycles,
    ),
    (
        "gca_gc_minor_cycles_total",
        "Minor collection cycles observed.",
        MetricType::Counter,
        GcTelemetry::minor_cycles,
    ),
    (
        "gca_gc_violations_total",
        "Assertion violations detected.",
        MetricType::Counter,
        GcTelemetry::violations,
    ),
];

/// Writes every telemetry metric family, one series per `(prefix,
/// snapshot)` pair. With one empty prefix this is
/// [`GcTelemetry::to_prometheus`]; the soak fleet passes a `shard` label
/// per shard. The families:
///
/// * `gca_gc_cycles_total`, `gca_gc_minor_cycles_total`,
///   `gca_gc_violations_total` — plain counters.
/// * `gca_gc_phase_seconds_total{phase=...}` — cumulative wall time per
///   phase (`pre_root`, `mark`, `sweep`, `minor`).
/// * `gca_gc_worker_mark_seconds_total{worker="i"}` — cumulative mark-phase
///   busy time per tracing worker.
/// * `gca_assertion_overhead_total{kind=...,metric=...}` — the full 5×5
///   attribution matrix (all cells, zeros included, so scrapes have a
///   stable shape).
/// * `gca_gc_pause_seconds` — log₂-bucketed major-pause histogram.
pub fn push_telemetry_families(out: &mut String, shards: &[(&[Label<'_>], &GcTelemetry)]) {
    push_rows(out, &TELEMETRY_COUNTS, shards);
    let mut family = Family::start(
        out,
        "gca_gc_phase_seconds_total",
        "Cumulative wall time per GC phase.",
        MetricType::Counter,
    );
    for (p, t) in shards {
        for phase in GcPhase::ALL {
            let ns = t.phase_total(phase).as_nanos() as u64;
            family.sample(p, &[("phase", &phase.label())], Seconds(ns));
        }
    }
    let mut family = Family::start(
        out,
        "gca_gc_worker_mark_seconds_total",
        "Cumulative mark-phase busy time per worker.",
        MetricType::Counter,
    );
    for (p, t) in shards {
        for (i, &ns) in t.worker_mark_ns().iter().enumerate() {
            family.sample(p, &[("worker", &i)], Seconds(ns));
        }
    }
    let mut family = Family::start(
        out,
        "gca_assertion_overhead_total",
        "Assertion-checking work units by kind and mechanism.",
        MetricType::Counter,
    );
    for (p, t) in shards {
        for kind in AssertionKind::ALL {
            let k = t.overhead().kind(kind);
            for (metric, value) in [
                ("registered", k.registered),
                ("header_bit_checks", k.header_bit_checks),
                ("counter_bumps", k.counter_bumps),
                ("extra_edges_traced", k.extra_edges_traced),
                ("phase_work", k.phase_work),
            ] {
                family.sample(p, &[("kind", &kind.label()), ("metric", &metric)], value);
            }
        }
    }
    let mut family = Family::start(
        out,
        "gca_gc_pause_seconds",
        "Log2-bucketed pause time histogram (seconds).",
        MetricType::Histogram,
    );
    for (p, t) in shards {
        family.histogram(p, t.pause_histogram());
    }
}

const CENSUS_CYCLES: [Row<HeapCensus>; 2] = [
    (
        "gca_census_cycles_total",
        "Major census cycles recorded.",
        MetricType::Counter,
        HeapCensus::cycles,
    ),
    (
        "gca_census_minor_cycles_total",
        "Minor census cycles recorded.",
        MetricType::Counter,
        HeapCensus::minor_cycles,
    ),
];

const CENSUS_DRIFTING: [Row<HeapCensus>; 1] = [(
    "gca_census_drifting_keys",
    "Classes and sites currently flagged as drifting.",
    MetricType::Gauge,
    |c| c.drifts().len() as u64,
)];

/// A census family over the latest major census's largest entries: name,
/// help text, label key, the entries, and each entry's value.
type TopRow = (
    &'static str,
    &'static str,
    &'static str,
    fn(&CensusData, usize) -> Vec<&CensusEntry>,
    fn(&CensusEntry) -> u64,
);

const CENSUS_TOPS: [TopRow; 3] = [
    (
        "gca_census_live_objects",
        "Live objects per class, latest major census (top classes by bytes).",
        "class",
        CensusData::top_classes_by_bytes,
        |e| e.objects,
    ),
    (
        "gca_census_live_bytes",
        "Live bytes per class, latest major census (top classes by bytes).",
        "class",
        CensusData::top_classes_by_bytes,
        |e| e.bytes,
    ),
    (
        "gca_census_site_live_bytes",
        "Live bytes per allocation site, latest major census (top sites by bytes).",
        "site",
        CensusData::top_sites_by_bytes,
        |e| e.bytes,
    ),
];

/// Writes every census metric family, one series set per `(prefix,
/// census)` pair; [`HeapCensus::to_prometheus`] lists them.
pub fn push_census_families(out: &mut String, shards: &[(&[Label<'_>], &HeapCensus)]) {
    push_rows(out, &CENSUS_CYCLES, shards);
    for (name, help, key, top, value) in CENSUS_TOPS {
        let mut family = Family::start(out, name, help, MetricType::Gauge);
        for (p, c) in shards {
            for e in c.latest().map_or(Vec::new(), |l| top(&l.data, PROM_TOP_N)) {
                family.sample(p, &[(key, &e.name)], value(e));
            }
        }
    }
    push_rows(out, &CENSUS_DRIFTING, shards);
    let mut family = Family::start(
        out,
        "gca_census_drift",
        "Keys flagged as drifting (value = last observed live objects).",
        MetricType::Gauge,
    );
    for (p, c) in shards {
        for d in c.drifts() {
            family.sample(
                p,
                &[("scope", &d.scope.label()), ("name", &d.name)],
                d.last_objects,
            );
        }
    }
    let mut family = Family::start(
        out,
        "gca_census_suggested_instance_limit",
        "Data-derived assert-instances limit for drifted classes.",
        MetricType::Gauge,
    );
    for (p, c) in shards {
        for d in c.drifts().iter().filter(|d| d.scope == DriftScope::Class) {
            family.sample(p, &[("class", &d.name)], d.suggested_limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> CycleRecord {
        let mut overhead = AssertionOverhead::default();
        overhead.dead.registered = 4;
        overhead.dead.header_bit_checks = 9;
        overhead.owned_by.phase_work = 12;
        overhead.owned_by.extra_edges_traced = 31;
        CycleRecord {
            seq: 7,
            kind: CycleKind::Major,
            total_ns: 123_456,
            pre_root_ns: 1_000,
            mark_ns: 100_000,
            sweep_ns: 22_456,
            objects_marked: 512,
            edges_traced: 777,
            pre_root_edges: 31,
            objects_swept: 44,
            words_swept: 440,
            promoted: 0,
            violations: 2,
            worker_mark_ns: vec![60_000, 40_000],
            overhead,
            census: None,
        }
    }

    #[test]
    fn roundtrip_single_record() {
        let rec = sample_record();
        let text = records_to_jsonl(std::slice::from_ref(&rec), Some("bh"));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].bench.as_deref(), Some("bh"));
        assert_eq!(parsed[0].record, rec);
    }

    #[test]
    fn shard_tag_roundtrips_and_is_absent_by_default() {
        let rec = sample_record();
        let plain = record_to_json(&rec, Some("bh"));
        assert!(!plain.contains("\"shard\""));
        let tagged = record_to_json_tagged(&rec, Some("bh"), Some(3));
        assert!(tagged.starts_with("{\"bench\":\"bh\",\"shard\":3,\"seq\":"));
        let parsed = parse_jsonl(&tagged).unwrap();
        assert_eq!(parsed[0].shard, Some(3));
        assert_eq!(parsed[0].bench.as_deref(), Some("bh"));
        assert_eq!(parsed[0].record, rec);
        // Without a bench label the shard still leads the record.
        let bare = record_to_json_tagged(&rec, None, Some(0));
        assert!(bare.starts_with("{\"shard\":0,\"seq\":"));
        let parsed = parse_jsonl(&bare).unwrap();
        assert_eq!(parsed[0].shard, Some(0));
        assert_eq!(parsed[0].bench, None);
        // A wrong-typed shard errors cleanly.
        assert!(parse_jsonl("{\"shard\":\"x\",\"seq\":1}").is_err());
    }

    #[test]
    fn fleet_jsonl_merge_stays_attributable() {
        let recs = [sample_record(), CycleRecord::default()];
        let mut merged = String::new();
        for (shard, rec) in recs.iter().enumerate() {
            merged.push_str(&records_to_jsonl_tagged(
                std::slice::from_ref(rec),
                Some("soak"),
                Some(shard as u64),
            ));
        }
        let parsed = parse_jsonl(&merged).unwrap();
        assert_eq!(parsed.len(), 2);
        for (i, line) in parsed.iter().enumerate() {
            assert_eq!(line.shard, Some(i as u64));
            assert_eq!(line.record, recs[i]);
        }
    }

    #[test]
    fn roundtrip_without_bench_label() {
        let rec = sample_record();
        let text = records_to_jsonl(std::slice::from_ref(&rec), None);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].bench, None);
        assert_eq!(parsed[0].record, rec);
    }

    #[test]
    fn census_roundtrips_and_is_absent_by_default() {
        let mut rec = sample_record();
        assert!(!record_to_json(&rec, None).contains("\"census\""));
        rec.census = Some(CensusData {
            classes: vec![
                CensusEntry {
                    name: "Node".into(),
                    objects: 12,
                    bytes: 480,
                },
                CensusEntry {
                    name: "we\"ird".into(),
                    objects: 1,
                    bytes: 8,
                },
            ],
            sites: vec![CensusEntry {
                name: "loop:3".into(),
                objects: 7,
                bytes: 56,
            }],
        });
        let text = records_to_jsonl(std::slice::from_ref(&rec), Some("bh"));
        assert!(text.contains("\"census\":{\"classes\":[{\"name\":\"Node\""));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].record, rec);
        // An empty census is still Some and survives the round trip.
        rec.census = Some(CensusData::default());
        let parsed = parse_jsonl(&records_to_jsonl(std::slice::from_ref(&rec), None)).unwrap();
        assert_eq!(parsed[0].record.census, Some(CensusData::default()));
        // Malformed census values error cleanly.
        for bad in [
            "{\"census\":[]}",
            "{\"census\":{\"classes\":7}}",
            "{\"census\":{\"classes\":[{\"objects\":1}]}}",
            "{\"census\":{\"classes\":[{\"name\":\"x\",\"objects\":\"y\"}]}}",
        ] {
            assert!(parse_jsonl(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn zero_overhead_serializes_empty_object() {
        let rec = CycleRecord::default();
        let json = record_to_json(&rec, None);
        assert!(json.contains("\"overhead\":{}"));
        let parsed = parse_jsonl(&json).unwrap();
        assert!(parsed[0].record.overhead.is_zero());
    }

    #[test]
    fn bench_label_is_escaped() {
        let rec = CycleRecord::default();
        let text = records_to_jsonl(std::slice::from_ref(&rec), Some("we\"ird\\name\n"));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].bench.as_deref(), Some("we\"ird\\name\n"));
    }

    #[test]
    fn truncated_lines_error_not_panic() {
        let full = record_to_json(&sample_record(), Some("bh"));
        for cut in 1..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let r = parse_jsonl(&full[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes should not parse");
        }
    }

    #[test]
    fn corrupt_bytes_error_not_panic() {
        for garbage in [
            "{",
            "}",
            "[",
            "null",
            "42",
            "\"str\"",
            "{\"seq\":}",
            "{\"seq\":1,}",
            "{\"seq\":-1}",
            "{\"seq\":1.5}",
            "{\"seq\":\"x\"}",
            "{\"worker_mark_ns\":7}",
            "{\"worker_mark_ns\":[\"x\"]}",
            "{\"overhead\":[]}",
            "{\"kind\":3}",
            "{\"overhead\":{\"dead\":[]}}",
            "{\"seq\":99999999999999999999999}",
            "{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":\
             {\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":1}}}}}}}}}}}}}}}}}}",
        ] {
            let r = parse_jsonl(garbage);
            match garbage {
                "null" | "42" | "\"str\"" | "[" => assert!(r.is_err()),
                _ => {
                    // Either an error or (for over-deep/overflow cases that
                    // degrade to Null on unknown keys) a lenient parse; the
                    // contract is only "no panic, no bogus typed data".
                    let _ = r;
                }
            }
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let parsed =
            parse_jsonl("{\"seq\":3,\"future_field\":[1,{\"x\":true}],\"total_ns\":10}\n").unwrap();
        assert_eq!(parsed[0].record.seq, 3);
        assert_eq!(parsed[0].record.total_ns, 10);
    }

    #[test]
    fn blank_lines_are_skipped_and_line_numbers_reported() {
        let text = "\n{\"seq\":1}\n\n{oops\n";
        let err = parse_jsonl(text).unwrap_err();
        match err {
            TelemetryParseError::Unexpected { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ns_formatting_is_integer_exact() {
        assert_eq!(Seconds(0).to_string(), "0.000000000");
        assert_eq!(Seconds(1).to_string(), "0.000000001");
        assert_eq!(Seconds(1_500_000_000).to_string(), "1.500000000");
        assert_eq!(Seconds(u64::MAX).to_string(), "18446744073.709551615");
    }

    /// A label value as the writer escapes it.
    fn escaped(value: &str) -> String {
        let mut out = String::new();
        let _ = write!(LabelValue(&mut out), "{value}");
        out
    }

    #[test]
    fn hostile_label_values_are_escaped_per_exposition_format() {
        // The three characters the exposition format requires escaping in
        // label values: backslash, double quote, newline.
        assert_eq!(escaped(r"C:\temp"), r"C:\\temp");
        assert_eq!(escaped("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escaped("a\nb"), "a\\nb");
        // Pin the full rendered line for a hostile allocation-site name.
        let mut census = HeapCensus::new();
        census.record_major(CensusData {
            classes: Vec::new(),
            sites: vec![CensusEntry {
                name: "Evil\\site\"x\"\nalloc".to_owned(),
                objects: 2,
                bytes: 64,
            }],
        });
        let text = census.to_prometheus();
        let want = "gca_census_site_live_bytes{site=\"Evil\\\\site\\\"x\\\"\\nalloc\"} 64";
        assert!(
            text.lines().any(|l| l == want),
            "missing exact line {want:?} in:\n{text}"
        );
        // No raw newline may survive inside any sample line: every line
        // must still be a well-formed `name{labels} value` or comment.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.rsplit_once(' ').is_some(),
                "malformed line: {line:?}"
            );
        }
    }

    #[test]
    fn fleet_prometheus_merges_shards_under_one_header_set() {
        let mut t0 = GcTelemetry::new();
        t0.record(sample_record());
        let t1 = GcTelemetry::new();
        let mut census = HeapCensus::new();
        census.record_major(CensusData {
            classes: vec![CensusEntry {
                name: "Session".to_owned(),
                objects: 5,
                bytes: 200,
            }],
            sites: Vec::new(),
        });
        let (s0, s1): ([Label<'_>; 1], [Label<'_>; 1]) = ([("shard", &0)], [("shard", &1)]);
        let mut text = String::new();
        push_telemetry_families(&mut text, &[(&s0, &t0), (&s1, &t1)]);
        push_census_families(&mut text, &[(&s0, &census)]);
        // Exactly one HELP/TYPE per family even with two shards.
        assert_eq!(
            text.matches("# HELP gca_gc_cycles_total ").count(),
            1,
            "duplicate headers in:\n{text}"
        );
        assert_eq!(text.matches("# TYPE gca_gc_pause_seconds ").count(), 1);
        for needle in [
            "gca_gc_cycles_total{shard=\"0\"} 1",
            "gca_gc_cycles_total{shard=\"1\"} 0",
            "gca_gc_violations_total{shard=\"0\"} 2",
            "gca_gc_phase_seconds_total{shard=\"0\",phase=\"mark\"}",
            "gca_gc_worker_mark_seconds_total{shard=\"0\",worker=\"1\"}",
            "gca_assertion_overhead_total{shard=\"1\",kind=\"dead\",metric=\"registered\"} 0",
            "gca_gc_pause_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1",
            "gca_gc_pause_seconds_sum{shard=\"1\"} 0.000000000",
            "gca_census_live_objects{shard=\"0\",class=\"Session\"} 5",
            "gca_census_cycles_total{shard=\"0\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Shard 1 has no census, so no census series for it.
        assert!(!text.contains("gca_census_cycles_total{shard=\"1\"}"));
    }

    #[test]
    fn prometheus_contains_all_metric_families() {
        let mut t = GcTelemetry::new();
        t.record(sample_record());
        let text = t.to_prometheus();
        for needle in [
            "gca_gc_cycles_total 1",
            "gca_gc_violations_total 2",
            "gca_gc_phase_seconds_total{phase=\"mark\"}",
            "gca_gc_worker_mark_seconds_total{worker=\"1\"}",
            "gca_assertion_overhead_total{kind=\"dead\",metric=\"header_bit_checks\"} 9",
            "gca_assertion_overhead_total{kind=\"instances\",metric=\"counter_bumps\"} 0",
            "gca_gc_pause_seconds_bucket{le=\"+Inf\"} 1",
            "gca_gc_pause_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
