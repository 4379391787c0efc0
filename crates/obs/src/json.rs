//! Hand-rolled JSON emission and parsing, shared by every
//! machine-readable report in the workspace (the workspace builds
//! offline, without serde).
//!
//! Writers: [`JsonRow`] builds one single-line object (an array row),
//! [`JsonReport`] builds the pretty-printed top-level report object.
//! Reader: [`parse_json`], a minimal recursive-descent parser producing
//! [`Json`] — enough of the data model for the schema validators in
//! `crowder-bench` and [`crate::export`].
//!
//! Hoisted here from `crowder-bench::perf` so the observability
//! exporters and the bench reports share one implementation;
//! `crowder-bench::perf` re-exports these names for its callers.

/// Escape a string for embedding in a JSON document: backslash, quote,
/// and every control character (named escapes for the common three,
/// `\u00XX` for the rest — RFC 8259 requires all of U+0000..U+001F).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one single-line JSON object — an array row like
/// `{"dataset": "restaurant", "median_ns": 123}`.
#[derive(Debug, Clone, Default)]
pub struct JsonRow {
    buf: String,
}

impl JsonRow {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        self.buf
            .push_str(&format!("\"{key}\": \"{}\"", json_escape(value)));
        self
    }

    /// Append a numeric field (anything that `Display`s as a JSON
    /// number: integers, floats).
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.sep();
        self.buf.push_str(&format!("\"{key}\": {value}"));
        self
    }

    /// Close the row.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Builder for a pretty-printed top-level report object: scalar fields
/// at 2-space indent, arrays of [`JsonRow`]s at 4.
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    buf: String,
}

impl JsonReport {
    /// An empty report object.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        self.buf
            .push_str(if self.buf.is_empty() { "{\n" } else { ",\n" });
    }

    /// Append a top-level numeric field.
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.sep();
        self.buf.push_str(&format!("  \"{key}\": {value}"));
        self
    }

    /// Append a top-level string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        self.buf
            .push_str(&format!("  \"{key}\": \"{}\"", json_escape(value)));
        self
    }

    /// Append an array of rows.
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = String>) -> Self {
        self.sep();
        self.buf.push_str(&format!("  \"{key}\": [\n"));
        let body: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        self.buf.push_str(&body.join(",\n"));
        self.buf.push_str("\n  ]");
        self
    }

    /// Close the object.
    pub fn build(mut self) -> String {
        self.buf.push_str("\n}\n");
        self.buf
    }
}

/// A parsed JSON value — just enough of the data model for the reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as f64.
    Number(f64),
    /// A string (no escape handling beyond `\"` and `\\`).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, insertion-ordered.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document (recursive descent; enough for the report
/// schemas — no unicode escapes, no exponent-heavy edge cases beyond
/// what `f64::from_str` accepts).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    // Collect raw bytes and decode once at the closing quote: pushing
    // each byte as a `char` would mangle multi-byte UTF-8 sequences.
    let mut bytes = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(bytes).map_err(|_| "invalid utf-8 in string".to_string())
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => bytes.push(b'"'),
                    b'\\' => bytes.push(b'\\'),
                    b'/' => bytes.push(b'/'),
                    b'n' => bytes.push(b'\n'),
                    b't' => bytes.push(b'\t'),
                    b'r' => bytes.push(b'\r'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("invalid \\u escape")?;
                        // Surrogates are rejected rather than paired: the
                        // writer only emits \u for control characters.
                        let c = char::from_u32(code)
                            .ok_or("\\u escape is not a unicode scalar value")?;
                        let mut buf = [0u8; 4];
                        bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                }
            }
            other => bytes.push(other),
        }
    }
    Err("unterminated string".into())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_basics() {
        let v = parse_json(r#"{"a": [1, 2.5, "x", true, null], "b": {"c": -3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(-3.0));
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"k\" 1}").is_err());
        assert!(parse_json("[1] trailing").is_err());
    }

    #[test]
    fn string_escaping_roundtrips_control_chars_and_utf8() {
        // Every byte the writer could meet: quotes, backslashes, the
        // named control escapes, an unnamed control char, and
        // multi-byte UTF-8 (which the parser must not mangle).
        let nasty = "a\"b\\c\nd\re\tf\u{1}g café 日本語";
        let json = format!("{{\"k\": \"{}\"}}", json_escape(nasty));
        let parsed = parse_json(&json).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(nasty));
        // The document itself carries no raw control characters.
        assert!(json.bytes().all(|b| b >= 0x20));
        // \uXXXX escapes decode, including ones the writer never emits.
        let v = parse_json("{\"k\": \"\\u0041\\u00e9\\u0001\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("A\u{e9}\u{1}"));
        // Lone surrogates and truncated escapes are rejected, not mangled.
        assert!(parse_json("{\"k\": \"\\ud800\"}").is_err());
        assert!(parse_json("{\"k\": \"\\u00\"}").is_err());
        // A row built from a hostile string stays one well-formed line.
        let row = JsonRow::new().str("name", "line1\nline2\t\"x\"").build();
        assert!(!row.contains('\n'));
        assert!(parse_json(&row).is_ok());
    }

    #[test]
    fn report_builder_emits_parseable_documents() {
        let doc = JsonReport::new()
            .num("schema_version", 1)
            .str("note", "hi")
            .rows(
                "rows",
                [JsonRow::new().str("name", "a").num("v", 2).build()],
            )
            .build();
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("schema_version").unwrap().as_f64(), Some(1.0));
        let rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("v").unwrap().as_f64(), Some(2.0));
    }
}
