//! A small, dependency-free JSON value type used by the structured-metrics
//! layer (`spt::sweep::RunReport` and the `spt-bench` binaries' `--json`
//! output).
//!
//! The build environment cannot resolve crates.io, so instead of `serde`
//! this module hand-rolls the one thing the project needs: *deterministic*
//! serialization. Objects keep insertion order (no hash-map reordering),
//! floats render via Rust's shortest-roundtrip `{:?}` formatting, and there
//! is no whitespace variation — the same value always serializes to the
//! same bytes. The sweep determinism tests rely on this byte stability.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers (register values, return codes).
    Int(i64),
    /// Unsigned counters (cycles, instruction counts) — kept separate from
    /// `Int` so u64 values above `i64::MAX` never lose bits.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// Insert a key (objects only; no-op otherwise). Returns `self` for
    /// chaining.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(pairs) = &mut self {
            pairs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Build an array from anything convertible.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Serialize compactly (no whitespace). Deterministic: same value, same
    /// bytes.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serialize with two-space indentation, for human-facing files.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    /// Parse a JSON document. Strict enough for round-tripping what this
    /// module and `spt_trace::jsonl` emit (the trace schema validator and
    /// golden tests read files back through this). Arrays and objects nest
    /// at most 128 deep, so hostile input cannot exhaust the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::<true>::document(text).map_err(|e| e.to_string())
    }

    /// True exactly when [`Json::parse`] would accept `text`, decided by
    /// the same grammar without building a value or allocating.
    pub fn validate(text: &str) -> bool {
        Parser::<false>::document(text).is_ok()
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects that [`Json::parse`] and
/// [`Json::validate`] accept. Far above anything this project writes (its
/// reports nest a handful of levels deep).
const MAX_DEPTH: usize = 128;

/// Why a document failed to parse. Building one allocates nothing; the
/// message is rendered only by [`Json::parse`].
#[derive(Debug)]
enum ParseError {
    Expected(u8, usize),
    ExpectedSep(u8, usize),
    BadLiteral(usize),
    UnexpectedEnd,
    NoValue(usize),
    TooDeep(usize),
    Trailing(usize),
    Unterminated,
    BadEscape(usize),
    ControlChar(usize),
    BadNumber(usize),
    TruncatedUnicode,
    BadUnicode,
    Utf8(std::str::Utf8Error),
    Int(std::num::ParseIntError),
    Float(std::num::ParseFloatError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Expected(b, i) => write!(f, "expected '{}' at offset {i}", *b as char),
            ParseError::ExpectedSep(close, i) => {
                write!(f, "expected ',' or '{}' at offset {i}", *close as char)
            }
            ParseError::BadLiteral(i) => write!(f, "bad literal at offset {i}"),
            ParseError::UnexpectedEnd => f.write_str("unexpected end of input"),
            ParseError::NoValue(i) => write!(f, "expected a value at offset {i}"),
            ParseError::TooDeep(i) => {
                write!(f, "nesting deeper than {MAX_DEPTH} at offset {i}")
            }
            ParseError::Trailing(i) => write!(f, "trailing bytes at offset {i}"),
            ParseError::Unterminated => f.write_str("unterminated string"),
            ParseError::BadEscape(i) => write!(f, "bad escape at offset {i}"),
            ParseError::ControlChar(i) => write!(f, "raw control character at offset {i}"),
            ParseError::BadNumber(i) => write!(f, "bad number at offset {i}"),
            ParseError::TruncatedUnicode => f.write_str("truncated \\u escape"),
            ParseError::BadUnicode => f.write_str("bad \\u escape"),
            ParseError::Utf8(e) => e.fmt(f),
            ParseError::Int(e) => e.fmt(f),
            ParseError::Float(e) => e.fmt(f),
        }
    }
}

/// The one JSON grammar. With `BUILD` it returns the parsed value; without
/// it, it only checks the input and returns `Json::Null` placeholders,
/// so [`Json::validate`] accepts exactly what [`Json::parse`] accepts.
struct Parser<'a, const BUILD: bool> {
    s: &'a [u8],
    i: usize,
}

impl<const BUILD: bool> Parser<'_, BUILD> {
    /// Exactly one value, surrounded by optional whitespace.
    fn document(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser::<BUILD> {
            s: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(ParseError::Trailing(p.i));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.s.get(self.i) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(ParseError::Expected(b, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(ParseError::BadLiteral(self.i))
        }
    }

    /// One value; `depth` is the number of arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        let open = self.s.get(self.i).copied();
        if matches!(open, Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return Err(ParseError::TooDeep(self.i));
        }
        match open {
            None => Err(ParseError::UnexpectedEnd),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    if BUILD {
                        items.push(v);
                    }
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(ParseError::ExpectedSep(b']', self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    if BUILD {
                        pairs.push((k, v));
                    }
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(pairs));
                        }
                        _ => return Err(ParseError::ExpectedSep(b'}', self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or (rejected) raw control character in one step. All are
            // ASCII, so the run ends on a UTF-8 boundary of the (valid)
            // input.
            let run = self.s[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or(ParseError::Unterminated)?;
            let end = self.i + run;
            let plain = std::str::from_utf8(&self.s[self.i..end]).map_err(ParseError::Utf8)?;
            if BUILD {
                out.push_str(plain);
            }
            self.i = end;
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {}
                _ => return Err(ParseError::ControlChar(self.i)),
            }
            // A backslash: decode one escape.
            self.i += 1;
            let c = match self.s.get(self.i) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) {
                        // A high surrogate: only an escaped low surrogate
                        // may follow, and the pair is one character
                        // (RFC 8259 §7).
                        if self.s.get(self.i + 1..self.i + 3) != Some(&b"\\u"[..]) {
                            return Err(ParseError::BadUnicode);
                        }
                        self.i += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(ParseError::BadUnicode);
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    // A lone low surrogate is no character either.
                    char::from_u32(code).ok_or(ParseError::BadUnicode)?
                }
                _ => return Err(ParseError::BadEscape(self.i)),
            };
            if BUILD {
                out.push(c);
            }
            self.i += 1;
        }
    }

    /// The four hex digits after the `u` of a `\u` escape at `self.i`;
    /// leaves `self.i` on the last of them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .s
            .get(self.i + 1..self.i + 5)
            .ok_or(ParseError::TruncatedUnicode)?;
        // Exactly four hex digits: `from_str_radix` rejects every other
        // byte but a leading `+`.
        if hex[0] == b'+' {
            return Err(ParseError::BadUnicode);
        }
        let hex = std::str::from_utf8(hex).map_err(ParseError::Utf8)?;
        let code = u32::from_str_radix(hex, 16).map_err(ParseError::Int)?;
        self.i += 4;
        Ok(code)
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` (RFC 8259). An
    /// integer beyond `i64`/`u64` reads as the nearest `f64`, as §6
    /// allows.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        match self.s.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ if self.i == start => return Err(ParseError::NoValue(start)),
            _ => return Err(ParseError::BadNumber(start)),
        }
        let mut is_float = false;
        if self.s.get(self.i) == Some(&b'.') {
            is_float = true;
            self.i += 1;
            self.required_digits(start)?;
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            is_float = true;
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.required_digits(start)?;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(ParseError::Utf8)?;
        // The grammar above admits only digits, so an integer parse can
        // fail by overflow alone.
        let int = if is_float {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Json::Int)
        } else {
            text.parse::<u64>().ok().map(Json::UInt)
        };
        match int {
            Some(v) => Ok(v),
            None => text
                .parse::<f64>()
                .map(Json::Float)
                .map_err(ParseError::Float),
        }
    }

    fn digits(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
    }

    /// One or more digits; the number starting at `start` is bad without.
    fn required_digits(&mut self, start: usize) -> Result<(), ParseError> {
        let from = self.i;
        self.digits();
        if self.i == from {
            Err(ParseError::BadNumber(start))
        } else {
            Ok(())
        }
    }
}

impl Json {
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest representation that round-trips,
                    // and always includes a decimal point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        o.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::array(v)
    }
}

/// Types that know how to render themselves as structured metrics.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// The `pipe_stall` attribution triple, nested under `"stall"`.
fn stall_json(bd: &spt_sim::CycleBreakdown) -> Json {
    Json::obj()
        .with("fetch_gate", bd.stall.fetch_gate)
        .with("operand", bd.stall.operand)
        .with("advance", bd.stall.advance)
}

impl ToJson for spt_sim::BaselineReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("busy", self.breakdown.busy)
            .with("pipe_stall", self.breakdown.pipe_stall)
            .with("dcache_stall", self.breakdown.dcache_stall)
            .with("stall", stall_json(&self.breakdown))
            .with("l1_misses", self.cache.l1_misses)
            .with("l2_misses", self.cache.l2_misses)
            .with("l3_misses", self.cache.l3_misses)
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("loop_cycles", Json::array(self.loop_cycles.clone()))
            .with("ret", self.ret)
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }
}

impl ToJson for spt_sim::SptReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("busy", self.breakdown.busy)
            .with("pipe_stall", self.breakdown.pipe_stall)
            .with("dcache_stall", self.breakdown.dcache_stall)
            .with("stall", stall_json(&self.breakdown))
            .with("l1_misses", self.cache.l1_misses)
            .with("l2_misses", self.cache.l2_misses)
            .with("l3_misses", self.cache.l3_misses)
            .with("forks", self.forks)
            .with("forks_ignored", self.forks_ignored)
            .with("fast_commits", self.fast_commits)
            .with("replays", self.replays)
            .with("kills", self.kills)
            .with("divergence_kills", self.divergence_kills)
            .with("spec_instrs_checked", self.spec_instrs_checked)
            .with("spec_instrs_discarded", self.spec_instrs_discarded)
            .with("spec_misspec", self.spec_misspec)
            .with(
                "per_loop",
                Json::Array(
                    self.per_loop
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .with("id", l.id)
                                .with("cycles", l.cycles)
                                .with("instrs", l.instrs)
                                .with("forks", l.forks)
                                .with("fast_commits", l.fast_commits)
                                .with("replays", l.replays)
                                .with("kills", l.kills)
                                .with("spec_instrs", l.spec_instrs)
                                .with("spec_misspec", l.spec_misspec)
                        })
                        .collect(),
                ),
            )
            .with(
                "per_core",
                Json::Array(
                    self.per_core
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("core", c.core)
                                .with("instrs", c.instrs)
                                .with("threads", c.threads)
                                .with("fast_commits", c.fast_commits)
                                .with("replays", c.replays)
                                .with("kills", c.kills)
                        })
                        .collect(),
                ),
            )
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("ret", self.ret)
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }
}

impl ToJson for crate::solution::EvalOutcome {
    /// Every deterministic field of the outcome. The sweep determinism test
    /// compares these bytes across worker counts, so nothing timing- or
    /// scheduling-dependent may appear here.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("baseline", self.baseline.to_json())
            .with("spt", self.spt.to_json())
            .with(
                "selected_loops",
                Json::Array(
                    self.compiled
                        .loops
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .with("func", l.func.0)
                                .with("loop", l.key.loop_id.0)
                                .with("coverage", l.coverage)
                                .with("unroll", l.unroll)
                                .with("n_moved", l.n_moved)
                                .with("n_cloned", l.n_cloned)
                                .with("n_svp", l.n_svp)
                        })
                        .collect(),
                ),
            )
            .with("rejected", self.compiled.rejected.len())
            .with(
                "baseline_loop_cycles",
                Json::array(self.baseline_loop_cycles.clone()),
            )
            .with("speedup", self.speedup())
            .with("semantics_ok", self.semantics_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::from(true).dump(), "true");
        assert_eq!(Json::from(-3i64).dump(), "-3");
        assert_eq!(Json::from(u64::MAX).dump(), "18446744073709551615");
        assert_eq!(Json::from(1.5f64).dump(), "1.5");
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::from("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn floats_always_roundtrip_distinctly() {
        // `{:?}` keeps a decimal point so integers-as-floats stay floats.
        assert_eq!(Json::from(2.0f64).dump(), "2.0");
        assert_eq!(Json::from(0.1f64).dump(), "0.1");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj().with("z", 1u64).with("a", 2u64);
        assert_eq!(j.dump(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn nested_pretty_is_stable() {
        let j = Json::obj()
            .with("xs", Json::array(vec![1u64, 2]))
            .with("o", Json::obj().with("k", "v"));
        assert_eq!(j.dump(), "{\"xs\":[1,2],\"o\":{\"k\":\"v\"}}");
        assert_eq!(
            j.pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"o\": {\n    \"k\": \"v\"\n  }\n}\n"
        );
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(Json::from(None::<i64>).dump(), "null");
        assert_eq!(Json::from(Some(4i64)).dump(), "4");
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let j = Json::obj()
            .with("a", Json::array(vec![1u64, 2]))
            .with("b", Json::obj().with("s", "x\"y\n").with("f", 1.5f64))
            .with("n", Json::Null)
            .with("neg", -7i64)
            .with("t", true);
        assert_eq!(Json::parse(&j.dump()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn integer_extremes_roundtrip() {
        for j in [
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
            Json::UInt(u64::MAX),
        ] {
            assert_eq!(Json::parse(&j.dump()).unwrap().dump(), j.dump());
        }
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        // One past `i64::MIN` is still a JSON number: it reads as a float.
        assert_eq!(
            Json::parse("-9223372036854775809").unwrap(),
            Json::Float(-9223372036854775809.0)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("3 4").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_accessors() {
        let j = Json::parse("{\"k\":3,\"xs\":[1,2],\"s\":\"v\",\"f\":2.5}").unwrap();
        assert_eq!(j.get("k").and_then(Json::as_u64), Some(3));
        assert_eq!(
            j.get("xs").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(j.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(2.5));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn megabyte_string_with_every_escape_roundtrips() {
        // Plain ASCII runs, 2-, 3- and 4-byte UTF-8, and every character
        // `dump` escapes. A parse that re-validated the rest of the input
        // per character would take minutes on this.
        let unit = "plain text é € 😀 \" \\ \n \r \t \u{1} \u{1f} / ";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(big.len() >= 1 << 20);
        let j = Json::obj().with("s", big.as_str()).with("k", 1u64);
        let text = j.dump();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        // The escapes only `parse` accepts: `\/` and `\u` for any scalar.
        assert_eq!(
            Json::parse("\"a\\/b\\u00e9\\u20ac\\u0041\"").unwrap(),
            Json::from("a/bé€A")
        );
    }

    #[test]
    fn string_error_messages_are_stable() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err("\"unterminated"), "unterminated string");
        assert_eq!(err("{\"k"), "unterminated string");
        assert_eq!(err("\"a\\qb\""), "bad escape at offset 3");
        assert_eq!(err("\"ab\\"), "bad escape at offset 4");
        assert_eq!(err("\"\\u12\""), "truncated \\u escape");
        assert_eq!(err("\"\\ud800\""), "bad \\u escape");
        assert_eq!(err("\"\\uzzzz\""), "invalid digit found in string");
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // A request line may be 64 KiB of brackets; without the bound the
        // recursive descent would overflow a connection worker's stack.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(64 * 1024);
            assert!(Json::parse(&deep)
                .unwrap_err()
                .starts_with("nesting deeper than 128"));
            assert!(!Json::validate(&deep));
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok() && Json::validate(&ok));
        let over = format!("[{ok}]");
        assert!(Json::parse(&over).is_err() && !Json::validate(&over));
    }

    #[test]
    fn validate_agrees_with_parse_on_edge_cases() {
        for text in [
            "",
            " ",
            "null",
            " 1 ",
            "-",
            "-0",
            "+1",
            "1e",
            "1e5",
            ".5",
            "1.",
            "--1",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775807",
            "-9223372036854775808",
            "\"\\u+041\"",
            "\"\\u00e9\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud83d\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83d\\u00\"",
            "\"\\ud83dx\"",
            "99999999999999999999999",
            "-9223372036854775809",
            "\"a\nb\"",
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "tru",
            "nulls",
            "{}",
            "[]",
            "[[]]",
            "{\"a\":[{}]}",
            "\"\\",
            "1 2",
            "01",
            "\"\\b\\f\"",
            "\"a\u{1}b\"",
            "1.e5",
        ] {
            assert_eq!(Json::validate(text), Json::parse(text).is_ok(), "{text:?}");
        }
    }

    #[test]
    fn parse_follows_the_rfc_grammar() {
        for text in [
            "+1",
            "01",
            "-01",
            ".5",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "--1",
            "\"\\u+041\"",
            "\"\\u00g1\"",
            "\"a\nb\"",
            "\"a\u{1}b\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83dx\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} is not JSON");
        }
        for (text, want) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Int(0)),
            ("10", Json::UInt(10)),
            ("-12", Json::Int(-12)),
            ("0.5", Json::Float(0.5)),
            ("1e5", Json::Float(1e5)),
            ("1E-2", Json::Float(0.01)),
            ("-2.5e+3", Json::Float(-2500.0)),
            ("\"\\b\\f\"", Json::Str("\u{8}\u{c}".into())),
            ("\"\\u00e9\"", Json::Str("é".into())),
            ("\"\\ud83d\\ude00\"", Json::Str("\u{1F600}".into())),
            ("18446744073709551616", Json::Float(18446744073709551616.0)),
            ("-9223372036854775809", Json::Float(-9223372036854775809.0)),
        ] {
            assert_eq!(Json::parse(text).unwrap(), want, "{text:?}");
        }
    }
}
