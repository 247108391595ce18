//! The JSON trajectory report (`BENCH_writepath.json`): a small JSON value
//! type with a strict parser and a compact printer.
//!
//! The build environment has no JSON dependency.  The `sweep` runner loads
//! the whole report, sets the top-level keys of the suites it runs in place
//! and writes it back, so every other key, the recorded `"baseline"`
//! among them, survives the rewrite untouched.  Numbers and strings print
//! through [`json::number`] and [`json::string`], the same helpers the
//! result records use, so a report parsed and printed back is
//! byte-identical to what the runner wrote.

use std::fmt;

use wg_workload::results::json;

/// CPUs the host actually offers the process (1 when unknown).  Recorded in
/// every cell so wall-clock numbers can be read in context.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Times [`median_wall`] runs a timed cell.
pub const RUNS: usize = 5;

/// Run `cell` [`RUNS`] times: the median wall clock in seconds, and the last
/// run's output (every run simulates the same thing).  Only `cell` itself
/// is timed; the previous output is dropped after its clock stops.  One run
/// on a shared host can be several times slower than the next, so a wall
/// clock recorded in the report is a median, never a single run.
pub fn median_wall<T>(mut cell: impl FnMut() -> T) -> (f64, T) {
    let mut walls = [0.0; RUNS];
    let mut last = None;
    for wall in &mut walls {
        let start = std::time::Instant::now();
        let output = cell();
        *wall = start.elapsed().as_secs_f64();
        last = Some(output);
    }
    walls.sort_by(f64::total_cmp);
    (walls[RUNS / 2], last.expect("at least one run"))
}

/// A JSON value.  Objects keep their keys in file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: `(key, value)` pairs in order, keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Set `key` to `value`: in place if the key exists, else appended.
    ///
    /// # Panics
    ///
    /// If this is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Object(fields) = self else {
            panic!("cannot set {key:?} on a non-object JSON value");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number under `key`.
    ///
    /// # Panics
    ///
    /// If this is not an object with a number under `key`.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no number under {key:?}"))
    }

    /// Parse one JSON value that spans the whole of `text` (surrounding
    /// whitespace allowed).  Strict: no trailing bytes, no duplicate keys, no
    /// raw control characters in strings, no non-finite numbers.  An error
    /// names the byte offset where parsing stopped and what it expected.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.at < parser.text.len() {
            return parser.fail("trailing bytes after the value");
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Number(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Number(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_string())
    }
}

/// Compact printing: no whitespace, keys in order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Number(n) => json::number(*n),
            Json::String(s) => json::string(s),
            Json::Array(items) => {
                json::array(&items.iter().map(Json::to_string).collect::<Vec<_>>())
            }
            Json::Object(fields) => json::object(
                &fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.to_string()))
                    .collect::<Vec<_>>(),
            ),
        };
        f.write_str(&text)
    }
}

/// Recursive-descent parser over the text's bytes.
struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, reason: &str) -> Result<T, String> {
        Err(format!("byte {}: {reason}", self.at))
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Skip whitespace, then consume `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.peek() == Some(byte);
        if found {
            self.at += 1;
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => {
                let mut keys = Vec::new();
                let fields = self.sequence(b'}', "expected ',' or '}' in an object", |p| {
                    p.skip_whitespace();
                    let key_at = p.at;
                    if p.peek() != Some(b'"') {
                        return p.fail("expected a string key");
                    }
                    let key = p.string()?;
                    if keys.contains(&key) {
                        p.at = key_at;
                        return p.fail("duplicate key");
                    }
                    keys.push(key.clone());
                    if !p.eat(b':') {
                        return p.fail("expected ':' after the key");
                    }
                    Ok((key, p.value()?))
                })?;
                Ok(Json::Object(fields))
            }
            Some(b'[') => Ok(Json::Array(self.sequence(
                b']',
                "expected ',' or ']' in an array",
                Self::value,
            )?)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.text[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                self.fail("expected a value")
            }
            None => self.fail("unexpected end of input, expected a value"),
        }
    }

    /// The comma-separated items of an array or object up to `close`, with
    /// `at` on the opening bracket; `reason` names what a bad separator
    /// breaks.
    fn sequence<T>(
        &mut self,
        close: u8,
        reason: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail(reason);
            }
        }
    }

    /// A string, with `at` on its opening quote.  Unescaped runs are copied
    /// whole, so multi-byte UTF-8 passes through untouched.
    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(std::str::from_utf8(&self.text[run..self.at]).expect("split at ASCII"));
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.at += 1,
                Some(_) => return self.fail("raw control character in a string"),
                None => return self.fail("unterminated string"),
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                // Four hex digits naming a scalar value; surrogate halves
                // are refused, since the runner never writes them.
                Some(b'u') => match self
                    .text
                    .get(self.at + 1..self.at + 5)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
                    .and_then(char::from_u32)
                {
                    Some(c) => {
                        self.at += 4;
                        c
                    }
                    None => return self.fail("bad \\u escape"),
                },
                _ => return self.fail("unknown escape in a string"),
            };
            self.at += 1;
            out.push(escaped);
        }
    }

    /// Consume a run of digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let from = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at > from
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else if !self.digits() {
            return self.fail("expected a digit");
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !self.digits() {
                return self.fail("expected a digit after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !self.digits() {
                return self.fail("expected an exponent digit");
            }
        }
        let text = std::str::from_utf8(&self.text[start..self.at]).expect("number text is ASCII");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            _ => {
                self.at = start;
                self.fail("number out of range")
            }
        }
    }
}

/// Load the report at `path`.  A missing file is a fresh, empty report; a
/// file that exists but cannot be read or parsed is an error naming the
/// path and the byte offset, and the caller must leave the file as it is.
pub fn load(path: &str) -> Result<Json, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("report {path} is not valid JSON: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Json::Object(Vec::new())),
        Err(e) => Err(format!("cannot read report {path}: {e}")),
    }
}

/// Write the report to `path`, newline-terminated.
pub fn save(path: &str, report: &Json) {
    std::fs::write(path, format!("{report}\n"))
        .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_writepath.json");

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test input is valid JSON")
    }

    fn refused(text: &str) -> String {
        Json::parse(text).expect_err("test input is not valid JSON")
    }

    #[test]
    fn the_committed_report_round_trips_byte_for_byte() {
        assert_eq!(format!("{}\n", parse(COMMITTED)), COMMITTED);
    }

    /// The committed report with the colon after `"sfs_scale"` removed, and
    /// the offset where a parse of it must stop.
    fn without_sfs_scale_colon() -> (String, usize) {
        let key = COMMITTED.find("\"sfs_scale\":").expect("committed key");
        let text = COMMITTED.replacen("\"sfs_scale\":", "\"sfs_scale\"", 1);
        (text, key + "\"sfs_scale\"".len())
    }

    #[test]
    fn damaged_text_is_refused_with_its_offset() {
        let (no_colon, colon_at) = without_sfs_scale_colon();
        let truncated = COMMITTED.trim_end().strip_suffix('}').expect("object");
        let trailing = format!("{COMMITTED}{{}}");
        let open = &COMMITTED[..COMMITTED.find("\"sfs_scale\"").expect("committed key") + 4];
        for (text, offset, reason) in [
            (&no_colon[..], colon_at, "expected ':' after the key"),
            (
                truncated,
                truncated.len(),
                "expected ',' or '}' in an object",
            ),
            (&trailing, COMMITTED.len(), "trailing bytes after the value"),
            (open, open.len(), "unterminated string"),
            ("{\"a\":1,\"a\":2}", 7, "duplicate key"),
            ("", 0, "unexpected end of input, expected a value"),
        ] {
            assert_eq!(refused(text), format!("byte {offset}: {reason}"));
        }
        assert!(Json::parse(&COMMITTED[..COMMITTED.len() / 2]).is_err());
    }

    #[test]
    fn scalars_escapes_and_whitespace_parse() {
        let text = " {\"s\" : \"q\\\"b\\\\\\n\\u00e9\\/\", \"n\": -1.5e3,\n\"b\": [true, null], \"e\": {}}";
        let value = parse(text);
        assert_eq!(
            value.get("s"),
            Some(&Json::String("q\"b\\\n\u{e9}/".into()))
        );
        let printed = r#"{"s":"q\"b\\\né/","n":-1500,"b":[true,null],"e":{}}"#;
        assert_eq!(value.to_string(), printed);
        for bad in [
            "01", "1.", "-", "1e", "tru", "[1,]", "{\"a\"}", "\"\\x\"", "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn load_starts_fresh_only_when_the_file_is_missing() {
        let dir = std::env::temp_dir().join(format!("wg-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        let path = path.to_str().expect("utf-8 temp path");
        assert_eq!(load(path), Ok(Json::Object(Vec::new())));
        let (text, offset) = without_sfs_scale_colon();
        std::fs::write(path, &text).expect("write damaged report");
        let err = load(path).expect_err("a damaged report must not load");
        assert!(
            err.contains(path) && err.contains(&format!("byte {offset}")),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(path).expect("still there"), text);
        std::fs::remove_dir_all(&dir).expect("clean temp dir");
    }

    #[test]
    fn extract_finds_nested_objects() {
        let report = parse(r#"{"a":{"x":{"y":1}},"b":{"z":2}}"#);
        assert_eq!(
            report.get("a").and_then(|a| a.get("x")),
            Some(&parse(r#"{"y":1}"#))
        );
        assert_eq!(report.get("b"), Some(&parse(r#"{"z":2}"#)));
        assert_eq!(report.get("c"), None);
    }

    #[test]
    fn upsert_replaces_and_inserts() {
        let mut report = Json::Object(Vec::new());
        report.set("scale", parse(r#"{"k":1}"#));
        report.set("z", parse(r#"{"w":5}"#));
        assert_eq!(report.to_string(), r#"{"scale":{"k":1},"z":{"w":5}}"#);
        // A set key keeps its place; the keys after it survive.
        report.set("scale", parse(r#"{"k":2}"#));
        assert_eq!(report.to_string(), r#"{"scale":{"k":2},"z":{"w":5}}"#);
    }

    #[test]
    fn nested_namesakes_are_never_matched() {
        // The sfs_scale sub-report nests its own "baseline" curve; the
        // top-level "baseline" is another key, even after sfs_scale.
        let text = r#"{"sfs_scale":{"baseline":{"nested":1}},"baseline":{"real":3}}"#;
        let mut report = parse(text);
        assert_eq!(report.get("baseline"), Some(&parse(r#"{"real":3}"#)));
        assert_eq!(report.get("nested"), None);
        report.set("baseline", parse(r#"{"real":4}"#));
        assert_eq!(report.to_string(), text.replace("3", "4"));
    }

    #[test]
    fn sfs_scale_and_scale_keys_do_not_collide() {
        let text = r#"{"sfs_scale":{"baseline":{"p":1}},"scale":{"c2_mb1":{"q":2}}}"#;
        let mut report = parse(text);
        assert_eq!(report.get("scale"), Some(&parse(r#"{"c2_mb1":{"q":2}}"#)));
        // A scale rewrite keeps the sfs_scale curves verbatim.
        report.set("scale", parse(r#"{"c2_mb1":{"q":9}}"#));
        assert_eq!(report.to_string(), text.replace("2}", "9}"));
    }

    #[test]
    fn unknown_keys_are_carried_generically() {
        // A key this code has never heard of (the way a newer binary's
        // section looks to an older one) survives a rewrite verbatim,
        // whatever its value shape.
        let text = concat!(
            r#"{"bench":"writepath","baseline":{"x":1},"#,
            r#""mystery_section":{"cells":[{"a":1},{"b":2}],"note":"odd } brace"},"#,
            r#""count":42}"#
        );
        let mut report = parse(text);
        report.set("baseline", parse(r#"{"x":2}"#));
        assert_eq!(report.to_string(), text.replace(r#"{"x":1}"#, r#"{"x":2}"#));
    }

    #[test]
    fn stability_key_rides_alongside_the_existing_sections() {
        // Setting "stability" leaves its neighbours untouched, and its
        // nested "sync" cell is not a top-level key.
        let text = concat!(
            r#"{"faults":{"grid":{"c":1}},"stability":{"sfs":{"sync":{"lost_acked_bytes":0}}},"#,
            r#""sfs_scale":{"baseline":{"p":1}}}"#
        );
        let mut report = parse(text);
        assert_eq!(report.get("sync"), None);
        report.set("stability", parse(r#"{"sfs":{}}"#));
        let sync = r#"{"sync":{"lost_acked_bytes":0}}"#;
        assert_eq!(report.to_string(), text.replace(sync, "{}"));
    }

    #[test]
    fn braces_inside_strings_do_not_unbalance_the_scan() {
        let report = parse(r#"{"a":{"label":"odd } text { here"},"b":{"v":1}}"#);
        assert_eq!(report.get("b"), Some(&parse(r#"{"v":1}"#)));
        let label = report.get("a").and_then(|a| a.get("label"));
        assert_eq!(label, Some(&Json::String("odd } text { here".into())));
    }
}
