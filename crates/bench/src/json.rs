//! Minimal JSON emission for the `BENCH_*.json` artifacts.
//!
//! No JSON crate resolves offline, so the bench artifacts are built from
//! this tiny explicit [`Value`] tree: ~150 lines, deterministic field
//! order, RFC 8259-conformant output. A matching [`validate`] checker keeps the
//! emitter honest in tests and lets CI assert an artifact is well-formed
//! without external tooling.

use std::fmt::Write as _;
use std::path::Path;

/// A JSON document fragment. Object keys are `&'static str` because every
/// key this crate emits is a literal; insertion order is preserved so the
/// artifacts diff cleanly run-over-run.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (serialized without a decimal point).
    UInt(u64),
    /// A float; non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with ordered literal keys.
    Obj(Vec<(&'static str, Value)>),
}

impl Value {
    /// Convenience constructor for string values.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Renders the value as compact JSON with a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is the shortest round-trip form; integral
                    // values print without a fraction, which JSON permits.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
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
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{key}\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field `key` of an object; `Null` when absent or not an object.
    #[must_use]
    pub fn get(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }

    /// A number as `f64`; NaN for anything that is not one.
    #[must_use]
    pub fn num(&self) -> f64 {
        match self {
            Value::UInt(u) => *u as f64,
            Value::Num(x) => *x,
            _ => f64::NAN,
        }
    }

    /// The object's fields named in `keys`, in that order (absent ones
    /// left out) — a projection of a row.
    #[must_use]
    pub fn pick(&self, keys: &[&'static str]) -> Value {
        Value::Obj(
            keys.iter()
                .filter(|key| *self.get(key) != Value::Null)
                .map(|&key| (key, self.get(key).clone()))
                .collect(),
        )
    }

    /// Writes the rendered document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Checks that `text` is one well-formed JSON document (with trailing
/// whitespace allowed). Returns a position-annotated message on failure.
///
/// This is a validator, not a parser — it builds nothing, it only walks
/// the grammar. Used by the unit tests on every artifact the emitter
/// produces, and available to smoke checks.
///
/// # Errors
///
/// Returns a human-readable description of the first grammar violation.
pub fn validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", what as char, *pos))
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(_) => number(bytes, pos),
        None => Err("unexpected end of document".into()),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(c) if c.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1F => return Err(format!("raw control char at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(bytes, pos) {
        return Err(format!("expected number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("bad fraction at byte {}", *pos));
        }
    }
    if let Some(b'e' | b'E') = bytes.get(*pos) {
        *pos += 1;
        if let Some(b'+' | b'-') = bytes.get(*pos) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("bad exponent at byte {}", *pos));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_validates_round_trip() {
        let doc = Value::Obj(vec![
            ("experiment", Value::str("e7")),
            ("threads", Value::UInt(4)),
            ("speedup", Value::Num(3.25)),
            ("clean", Value::Bool(true)),
            ("nothing", Value::Null),
            (
                "rows",
                Value::Arr(vec![
                    Value::Obj(vec![("n", Value::UInt(65536)), ("eps", Value::Num(4.5e6))]),
                    Value::Obj(Vec::new()),
                ]),
            ),
        ]);
        let text = doc.render();
        assert!(text.contains("\"experiment\":\"e7\""));
        assert!(text.contains("\"eps\":4500000"));
        validate(&text).expect("emitter output must validate");
    }

    #[test]
    fn escapes_strings() {
        let text = Value::str("a\"b\\c\nd\u{1}").render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        validate(&text).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        let text = Value::Arr(vec![Value::Num(f64::NAN), Value::Num(f64::INFINITY)]).render();
        assert_eq!(text, "[null,null]\n");
        validate(&text).unwrap();
    }

    #[test]
    fn validator_accepts_the_grammar() {
        for good in [
            "null",
            " true ",
            "-12.5e-3",
            "\"\"",
            "[]",
            "{}",
            "[1,2,[3,{\"k\":\"v\"}]]",
            "{\"a\":{\"b\":[false,null]},\"c\":0.5}",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "{} extra",
            "[1 2]",
            "\"bad\\escape\"",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }
}
