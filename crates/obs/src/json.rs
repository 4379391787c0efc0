//! Hand-rolled JSON emission for the `perfbench` report writer (the
//! workspace builds offline, without serde).
//!
//! [`JsonRow`] builds one single-line object (an array row),
//! [`JsonReport`] builds the pretty-printed top-level report object.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_roundtrips_control_chars_and_utf8() {
        // Every character class the writer meets: quotes, backslashes,
        // the named control escapes, an unnamed control char, and
        // multi-byte UTF-8 (which passes through untouched).
        let nasty = "a\"b\\c\nd\re\tf\u{1}g café 日本語";
        let escaped = json_escape(nasty);
        assert_eq!(escaped, r#"a\"b\\c\nd\re\tf\u0001g café 日本語"#);
        // The escaped text carries no raw control characters.
        assert!(escaped.bytes().all(|b| b >= 0x20));
        // A row built from a hostile string stays one well-formed line.
        let row = JsonRow::new().str("name", "line1\nline2\t\"x\"").build();
        assert_eq!(row, r#"{"name": "line1\nline2\t\"x\""}"#);
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
        assert_eq!(
            doc,
            "{\n  \"schema_version\": 1,\n  \"note\": \"hi\",\n  \"rows\": [\n    \
             {\"name\": \"a\", \"v\": 2}\n  ]\n}\n"
        );
    }
}
