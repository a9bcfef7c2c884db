//! The workspace's one JSON reader and writer.
//!
//! The workspace is built offline against dependency shims — there is no
//! `serde` — yet JSON is read by the trace round-trip check
//! ([`crate::parse_chrome_trace`]), the ReFrame-style bench gate
//! (`bench_gate` reads `BENCH_kernels.json` / `DIST_report.json` /
//! `SWEEP_report.json` / `BENCH_reference.json`) and the tests validating
//! emitted artifacts, and written by every report: `DistReport::to_json`,
//! `SweepReport::to_json`, `bench_kernels` and the gate's history line each
//! build one [`Json`] value and print it through its [`std::fmt::Display`].
//! Reading is a small recursive-descent parser over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, literals) plus a
//! dotted-path accessor; writing keeps object keys in insertion order, sends
//! strings through [`escape`], prints the shortest `f64` that parses back to
//! the same bits, and maps a non-finite number to `null` — the one place
//! where a diverged run's `NaN` is kept from producing a file [`parse`]
//! rejects. (`Timeline::chrome_trace_json` stays a streaming writer over its
//! spans; it shares [`escape`].)

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order (the documents we
/// read are small; no hashing needed).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of the given fields, in the order given.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given items.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub(crate) fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value (rejects fractional numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array contents.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Dotted-path accessor: `"gemm_chain[0].gflops"` walks object fields
    /// and `[i]` array indices.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for segment in path.split('.') {
            if segment.is_empty() {
                return None;
            }
            let (key, indices) = match segment.find('[') {
                Some(p) => (&segment[..p], &segment[p..]),
                None => (segment, ""),
            };
            if !key.is_empty() {
                cur = cur.get(key)?;
            }
            let mut rest = indices;
            while let Some(stripped) = rest.strip_prefix('[') {
                let close = stripped.find(']')?;
                let i: usize = stripped[..close].parse().ok()?;
                cur = cur.idx(i)?;
                rest = &stripped[close + 1..];
            }
            if !rest.is_empty() {
                return None;
            }
        }
        Some(cur)
    }
}

/// Every JSON number is an `f64`: integers are exact up to 2⁵³.
macro_rules! number_into_json {
    ($($number:ty),*) => {$(
        impl From<$number> for Json {
            fn from(v: $number) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
number_into_json!(f64, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// `{}` prints the value on one line; `{:#}` puts the children of every
/// container that holds another container on lines of their own, indented
/// two spaces per level (a container of scalars stays on one line — a table
/// row). Both parse back to the value printed, except that a non-finite
/// number is printed as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) => {
                // `{:?}` is the shortest digits that parse back to the same
                // bits (exponent form beyond 1e16 / below 1e-4); an integer
                // drops its `.0`, so `-0.0` is `-0`.
                let digits = format!("{v:?}");
                f.write_str(digits.strip_suffix(".0").unwrap_or(&digits))
            }
            Json::Str(s) => f.write_str(&escape(s)),
            Json::Arr(items) => {
                write_container(f, depth, '[', ']', items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => {
                let children = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_container(f, depth, '{', '}', children)
            }
        }
    }
}

fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    open: char,
    close: char,
    children: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let broken = f.alternate() && children.clone().any(|(_, v)| v.is_container());
    let new_line = |f: &mut fmt::Formatter<'_>, depth: usize| {
        if broken {
            write!(f, "\n{:1$}", "", 2 * depth)
        } else {
            Ok(())
        }
    };
    write!(f, "{open}")?;
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            f.write_str(if broken { "," } else { ", " })?;
        }
        new_line(f, depth + 1)?;
        if let Some(key) = key {
            write!(f, "{}: ", escape(key))?;
        }
        value.write(f, depth + 1)?;
    }
    new_line(f, depth)?;
    write!(f, "{close}")
}

/// Escape a string as a JSON string literal (with surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}, "f": []}"#)
                .unwrap();
        assert_eq!(doc.path("a[2]").unwrap().as_f64().unwrap(), -300.0);
        assert_eq!(doc.path("b.c").unwrap().as_str().unwrap(), "x\ny");
        assert!(doc.path("b.d").unwrap().as_bool().unwrap());
        assert_eq!(doc.path("b.e").unwrap(), &Json::Null);
        assert_eq!(doc.path("f").unwrap().as_arr().unwrap().len(), 0);
        assert!(doc.path("missing").is_none());
        assert!(doc.path("a[9]").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn escape_round_trips() {
        let original = "line\nwith \"quotes\" and \\slash\t";
        let escaped = escape(original);
        let parsed = parse(&escaped).unwrap();
        assert_eq!(parsed.as_str().unwrap(), original);
    }

    #[test]
    fn written_values_parse_back_to_themselves() {
        let two_53 = (1u64 << 53) as f64;
        let doc = Json::obj([
            ("empty", Json::obj::<&str>([])),
            ("none", Json::arr::<Json>([])),
            (
                "text",
                "quote \" slash \\ tab \t bell \u{7} nul \u{0} ü".into(),
            ),
            ("key \"\n", true.into()),
            (
                "numbers",
                Json::arr([
                    0.0,
                    -0.0,
                    1.0,
                    -17.0,
                    two_53,
                    two_53 - 1.0,
                    -two_53,
                    0.1,
                    1.0 / 3.0,
                    6.02e23,
                    1e300,
                    -2.5e-9,
                    f64::MIN_POSITIVE,
                    f64::MAX,
                ]),
            ),
            (
                "rows",
                Json::arr([
                    Json::obj([("n", 1usize.into()), ("v", Json::Null)]),
                    Json::arr([Json::arr([7u64])]),
                ]),
            ),
            ("absent", None::<f64>.into()),
            ("present", Some(2.5).into()),
        ]);
        for text in [doc.to_string(), format!("{doc:#}")] {
            let back = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
            assert_eq!(back, doc, "{text}");
            // `==` on f64 cannot tell the zeros apart: compare the sign.
            let minus_zero = back.path("numbers[1]").and_then(Json::as_f64).unwrap();
            assert!(minus_zero == 0.0 && minus_zero.is_sign_negative(), "{text}");
        }
        assert!(!doc.to_string().contains('\n'));
        // Integers carry no fraction and no exponent up to 2^53.
        assert_eq!(Json::from(1u64 << 53).to_string(), "9007199254740992");
        assert_eq!(Json::from(3usize).to_string(), "3");
        assert_eq!(Json::from(-0.0).to_string(), "-0");
    }

    #[test]
    fn pretty_form_breaks_only_containers_of_containers() {
        let doc = Json::obj([
            ("a", 1usize.into()),
            ("rows", Json::arr([Json::obj([("n", 1usize.into())])])),
        ]);
        assert_eq!(
            format!("{doc:#}"),
            "{\n  \"a\": 1,\n  \"rows\": [\n    {\"n\": 1}\n  ]\n}"
        );
        assert_eq!(doc.to_string(), r#"{"a": 1, "rows": [{"n": 1}]}"#);
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let doc = Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5]);
        assert_eq!(doc.to_string(), "[null, null, null, 1.5]");
        let back = parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(back.idx(0), Some(&Json::Null));
        assert_eq!(back.idx(3).and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn as_u64_rejects_fractional() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
