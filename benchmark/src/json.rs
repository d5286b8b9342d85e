//! A JSON value, a parser for the files the harness reads back (result
//! files, the counter golden, `BENCHMARK.json`) and a writer.
//!
//! The writer has no string escaper on purpose: every string the harness
//! emits is a registered name, a fixed unit, or environment text already
//! reduced to plain characters, and [`Value::write`] refuses anything else.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on a non-object).
    pub fn set(&mut self, key: &str, value: Value) {
        match self {
            Value::Obj(fields) => fields.push((key.to_owned(), value)),
            other => panic!("set on non-object {other:?}"),
        }
    }

    /// Builder form of [`Value::set`].
    pub fn with(mut self, key: &str, value: Value) -> Value {
        self.set(key, value);
        self
    }

    /// Field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field of an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces), for files people diff.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                assert!(n.is_finite(), "non-finite number in output");
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => {
                assert!(
                    s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
                    "string {s:?} would need escaping; emit names and plain text only"
                );
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    Value::Str(k.clone()).write(out, None, 0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.fail("trailing text"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.fail("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("bad utf-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .bytes
                        .get(self.at + 1)
                        .ok_or_else(|| self.fail("bad escape"))?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !items.is_empty() && !self.eat(",") {
                return Err(self.fail("expected , or ]"));
            }
            items.push(self.value()?);
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(fields));
            }
            if !fields.is_empty() {
                if !self.eat(",") {
                    return Err(self.fail("expected , or }"));
                }
                self.skip_ws();
            }
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(self.fail("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.fail("expected :"));
            }
            fields.push((key, self.value()?));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_harness_writes() {
        let v = Value::obj()
            .with("name", "run_s".into())
            .with("value", 1.2034.into())
            .with("count", 7u64.into())
            .with("ok", Value::Bool(true))
            .with("list", Value::Arr(vec![1u64.into(), Value::Null]));
        for text in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
        assert_eq!(
            v.to_json(),
            r#"{"name":"run_s","value":1.2034,"count":7,"ok":true,"list":[1,null]}"#
        );
    }

    #[test]
    fn reads_escapes_it_never_writes() {
        let v = parse(r#"{"why": "a \"quoted\" line\nnext é"}"#).unwrap();
        assert_eq!(
            v.get("why").and_then(Value::as_str),
            Some("a \"quoted\" line\nnext é")
        );
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    #[should_panic(expected = "would need escaping")]
    fn refuses_strings_that_need_an_escaper() {
        Value::Str("a\"b".into()).to_json();
    }
}
