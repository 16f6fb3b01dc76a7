//! A small JSON value: the one result model of the `repro` measurement
//! plane.
//!
//! Every `BENCH_*.json` artifact is built as a [`Json`] and rendered by
//! the single [`Json::render`]; every reader (the schema gate, the
//! trajectory gate) goes through the single strict [`Json::parse`]. The
//! workspace is offline and has no serde, so this is dependency-free.
//!
//! One layout rule covers every artifact: a *leaf record* — an array of
//! scalars, or an object whose members are scalars or one-level
//! containers — prints on one line; anything else prints one child per
//! line, indented two spaces. A measured point or a trajectory entry is a
//! leaf record, so regenerated artifacts diff one point per line.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Numbers are `f64`; counts in this workspace sit far below 2^53, where
/// the conversion is exact.
macro_rules! json_from_number {
    ($($number:ty),*) => {$(
        impl From<$number> for Json {
            fn from(v: $number) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_number!(f64, u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Our writers never nest deeper than ~5; anything past this is a bug (and
/// an unbounded recursion on hostile input).
const MAX_DEPTH: usize = 64;

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rounded to `decimals` places — artifacts carry the precision
    /// the measurement has, not seventeen digits of timer noise.
    pub fn rounded(v: f64, decimals: i32) -> Json {
        let scale = 10f64.powi(decimals);
        Json::Num((v * scale).round() / scale)
    }

    /// This object followed by `more`'s members (both must be objects).
    pub fn merge(self, more: Json) -> Json {
        match (self, more) {
            (Json::Obj(mut a), Json::Obj(b)) => {
                a.extend(b);
                Json::Obj(a)
            }
            (a, b) => panic!("merge needs two objects, got {a:?} and {b:?}"),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow `keys` through nested objects.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |at, key| at.get(key))
    }

    /// In an array of objects, the first whose member `key` is the string
    /// `value` (how artifacts name their modes, transports and backends).
    pub fn find(&self, key: &str, value: &str) -> Option<&Json> {
        self.as_array()?
            .iter()
            .find(|item| item.get(key).and_then(Json::as_str) == Some(value))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Nesting height: scalars 0, a container one more than its tallest
    /// child.
    fn height(&self) -> usize {
        match self {
            Json::Arr(items) => 1 + items.iter().map(Json::height).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| v.height()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Render as a complete document (trailing newline). Fails on a
    /// non-finite number: `NaN` and `inf` are not JSON, and an artifact
    /// carrying one is a measurement bug to surface, not to write down.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.render_into(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    fn render_into(&self, out: &mut String, indent: usize) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Num(v) => render_number(*v, out)?,
            Json::Str(s) => render_string(s, out),
            // the layout rule (module doc): leaf records stay on one line
            Json::Arr(items) => {
                let layout = (indent, self.height() <= 1);
                render_children(out, layout, ['[', ']'], items.len(), |out, i| {
                    items[i].render_into(out, indent + 1)
                })?;
            }
            Json::Obj(members) => {
                let layout = (indent, self.height() <= 2);
                render_children(out, layout, ['{', '}'], members.len(), |out, i| {
                    render_string(&members[i].0, out);
                    out.push_str(": ");
                    members[i].1.render_into(out, indent + 1)
                })?;
            }
        }
        Ok(())
    }

    /// Parse a complete document, strictly (RFC 8259: no trailing commas,
    /// leading zeros, raw control characters or trailing garbage) — what
    /// `jq`, `serde_json` and Python's `json` accept, this accepts.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(value)
    }
}

/// The one place brackets, commas and line breaks are placed: `len`
/// children between `brackets`, on one line or one per line at
/// `indent + 1` (`layout` = `(indent, one_line)`).
fn render_children(
    out: &mut String,
    (indent, one_line): (usize, bool),
    brackets: [char; 2],
    len: usize,
    mut child: impl FnMut(&mut String, usize) -> Result<(), String>,
) -> Result<(), String> {
    let break_line = |out: &mut String, indent: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    };
    out.push(brackets[0]);
    for i in 0..len {
        if i > 0 {
            out.push_str(if one_line { ", " } else { "," });
        }
        if !one_line {
            break_line(out, indent + 1);
        }
        child(out, i)?;
    }
    if !one_line {
        break_line(out, indent);
    }
    out.push(brackets[1]);
    Ok(())
}

fn render_number(v: f64, out: &mut String) -> Result<(), String> {
    if !v.is_finite() {
        return Err(format!("non-finite number {v} cannot be rendered as JSON"));
    }
    // integers print as integers (never `1e6` or `1.0`); everything else
    // as the shortest decimal that parses back to the same f64 (Rust's
    // `Display` never uses exponent notation)
    if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64).expect("write to String");
    } else {
        write!(out, "{v}").expect("write to String");
    }
    Ok(())
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.container(depth, b'}'),
            Some(b'[') => self.container(depth, b']'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An object (`close == b'}'`) or an array: the same comma discipline,
    /// with a `"key":` before each object member.
    fn container(&mut self, depth: usize, close: u8) -> Result<Json, String> {
        self.at += 1; // the opening bracket `value` peeked
        let mut members = Vec::new();
        let mut items = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err(&format!("expected ',' or {:?}", close as char)));
                }
            }
        }
        Ok(if close == b'}' {
            Json::Obj(members)
        } else {
            Json::Arr(items)
        })
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.bytes.get(self.at..self.at + 4);
        let code = digits
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            let start = self.at;
            // copy the run up to the next quote, escape or control byte;
            // it lies between ASCII delimiters, so it is whole UTF-8
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.at += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).expect("str input"));
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated string"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The code point after `\u`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("lone surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("bad surrogate pair"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b'-');
        let int_start = self.at;
        match self.digits() {
            0 => return Err(self.err("number without digits")),
            1 => {}
            _ if self.bytes[int_start] == b'0' => return Err(self.err("leading zero in number")),
            _ => {}
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("decimal point without digits"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("exponent without digits"));
            }
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("unparseable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("benchmark", "sample".into()),
            (
                "config",
                Json::obj([
                    ("sizes", [16usize, 64].into_iter().collect()),
                    ("seed", 7u64.into()),
                ]),
            ),
            (
                "transports",
                Json::Arr(vec![Json::obj([
                    ("name", "tcp".into()),
                    (
                        "points",
                        Json::Arr(vec![
                            Json::obj([
                                ("nodes", 16usize.into()),
                                ("qps", Json::rounded(4.8349, 2)),
                            ]),
                            Json::obj([
                                ("nodes", 64usize.into()),
                                ("ok", true.into()),
                                ("why", Json::Null),
                            ]),
                        ]),
                    ),
                    ("scaling", Json::Num(20.13)),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn renders_one_point_per_line() {
        let text = sample().render().unwrap();
        assert_eq!(
            text,
            "{\n  \"benchmark\": \"sample\",\n  \"config\": {\"sizes\": [16, 64], \"seed\": 7},\n  \
             \"transports\": [\n    {\n      \"name\": \"tcp\",\n      \"points\": [\n        \
             {\"nodes\": 16, \"qps\": 4.83},\n        {\"nodes\": 64, \"ok\": true, \"why\": null}\n      \
             ],\n      \"scaling\": 20.13\n    }\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn render_parse_round_trips_nested_values() {
        let doc = sample();
        assert_eq!(Json::parse(&doc.render().unwrap()).unwrap(), doc);
        // and scalars at the top level
        for scalar in [Json::Null, Json::Bool(false), Json::Num(-0.5), "x".into()] {
            assert_eq!(Json::parse(&scalar.render().unwrap()).unwrap(), scalar);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote\" backslash\\ newline\n tab\t bell\u{7} nul\u{0} é ✓ 𝄞";
        let text = Json::from(nasty).render().unwrap();
        assert!(
            text.is_ascii() || text.contains('é'),
            "non-ASCII passes through"
        );
        assert!(text.contains("\\\"") && text.contains("\\\\") && text.contains("\\n"));
        assert!(text.contains("\\u0007") && text.contains("\\u0000"));
        assert!(
            !text.trim_end().chars().any(|c| c < ' '),
            "no raw control characters"
        );
        assert_eq!(Json::parse(&text).unwrap(), Json::from(nasty));
        // escapes our renderer never emits still parse
        assert_eq!(
            Json::parse(r#""é𝄞\/\b\f""#).unwrap(),
            Json::from("é𝄞/\u{8}\u{c}")
        );
        for bad in [
            r#""\ud834""#,
            r#""\udd1e""#,
            r#""\ud834A""#,
            r#""\x""#,
            r#""\u12g4""#,
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn integers_print_as_integers() {
        let render = |v: f64| Json::Num(v).render().unwrap();
        assert_eq!(render(1e6), "1000000\n");
        assert_eq!(render(1.0), "1\n");
        assert_eq!(render(-3.0), "-3\n");
        assert_eq!(render(5_686_625.0), "5686625\n");
        assert_eq!(render(1e-5), "0.00001\n");
        assert_eq!(render(2.426), "2.426\n");
        assert_eq!(Json::from(200_000usize).render().unwrap(), "200000\n");
        assert_eq!(Json::rounded(7.7396, 2).render().unwrap(), "7.74\n");
        assert_eq!(Json::rounded(549_958.4, 0).render().unwrap(), "549958\n");
    }

    #[test]
    fn non_finite_numbers_are_rejected_not_emitted() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj([("ratio", Json::Arr(vec![Json::Num(v)]))]);
            let err = doc.render().expect_err("non-finite must not render");
            assert!(err.contains("non-finite"), "{err}");
        }
        assert!(Json::parse("NaN").is_err());
        assert!(
            Json::parse("1e999").is_err(),
            "overflow to inf is not a number"
        );
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{a: 1}",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "{\"a\": 01}",
            "{\"a\": -012.5}",
            "{\"a\": \"line\nbreak\"}",
            "{\"a\": \"tab\there\"}",
            "{\"a\": \"unterminated}",
            "{\"a\": nul}",
            "[1, 2,]",
            "[1 2]",
            "{\"a\": 1e}",
            "{\"a\": 1.}",
            "{\"a\": -}",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    }

    #[test]
    fn lookups_follow_paths_and_names() {
        let doc = sample();
        assert_eq!(
            doc.path(&["config", "seed"]).and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(doc.path(&["config", "missing"]), None);
        let tcp = doc.get("transports").unwrap().find("name", "tcp").unwrap();
        assert_eq!(tcp.get("scaling").and_then(Json::as_f64), Some(20.13));
        assert_eq!(tcp.get("points").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("transports").unwrap().find("name", "udp").is_none());
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("sample"));
        let merged = Json::obj([("a", 1u32.into())]).merge(Json::obj([("b", true.into())]));
        assert_eq!(merged.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(merged.render().unwrap(), "{\"a\": 1, \"b\": true}\n");
    }
}
