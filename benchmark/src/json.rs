//! Reading JSON back into `oc_bench::json::Value`.
//!
//! `oc-bench` renders its artifacts from `Value` and only validates what
//! it reads. The benchmark also has to read: the parent process merges
//! the result lines of its children, `--compare` reads two result files,
//! and a test holds the metric tables against `BENCHMARK.json`. This is
//! the parser for that, and the accessors its callers share.

pub use oc_bench::json::Value;

/// `value[key]` of an object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Walks `path` down nested objects.
pub fn at<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| get(v, key))
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Num(x) => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// The value rendered on one line, without `render`'s trailing newline.
pub fn line(value: &Value) -> String {
    value.render().trim_end().to_owned()
}

/// Parses one JSON document; trailing whitespace is allowed. A number
/// written without sign, fraction or exponent becomes `UInt`, so counts
/// keep all 64 bits. `Value` keeps object keys as `&'static str`; parsed
/// keys are leaked to fit, which a process that reads a few small files
/// and exits can afford.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// The items of an array or object after its opening bracket, each
    /// read by `item`, up to and including `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                self.eat(close)?;
                return Ok(items);
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.sequence(b']', Self::value).map(Value::Arr),
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key: &'static str = Box::leak(p.string()?.into_boxed_str());
                    p.skip_ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Value::Obj),
            Some(_) => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse::<u64>()
                    .map(Value::UInt)
                    .or_else(|_| text.parse::<f64>().map(Value::Num))
                    .map_err(|_| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let c = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let text = r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(get(&parsed, "correct"), Some(&Value::Bool(true)));
        assert_eq!(get(&parsed, "attempted"), Some(&Value::UInt(1000)));
        assert_eq!(at(&parsed, &["metrics", "setup_s", "value"]).and_then(as_f64), Some(0.8127));
        assert_eq!(at(&parsed, &["metrics", "setup_s", "unit"]), Some(&Value::str("s")));
        assert_eq!(line(&parsed), text);
    }

    #[test]
    fn keeps_every_digit_of_a_float() {
        let x = 0.123_456_789_012_345_67_f64;
        assert_eq!(parse(&Value::Num(x).render()).as_ref().ok().and_then(as_f64), Some(x));
    }

    #[test]
    fn parses_escapes_arrays_and_whitespace() {
        let parsed = parse(" { \"a\" : [ 1 , -2.5e3 , null , \"x\\n\\u0041\\\"\" ] } \n").unwrap();
        let Some(Value::Arr(items)) = get(&parsed, "a") else { panic!("a is an array") };
        assert_eq!(items[0], Value::UInt(1));
        assert_eq!(items[1], Value::Num(-2500.0));
        assert_eq!(items[2], Value::Null);
        assert_eq!(items[3], Value::str("x\nA\""));
        assert_eq!(parse(&parsed.render()).unwrap(), parsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":1} x", "\"open", "nul", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
