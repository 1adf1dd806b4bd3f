//! The workspace's one JSON formatter.
//!
//! The vendored `serde` is a marker-only stand-in (derives expand to
//! nothing), so every report in this workspace serializes by hand, and
//! all of it goes through [`JsonWriter`]. The writer streams straight
//! into one `String` and owns every formatting decision: separators,
//! two-space indentation, string escaping and number formatting. Object
//! keys come out in the order they are written and floats use Rust's
//! shortest round-trip form, so the same calls always produce the same
//! bytes — the property the fleet determinism guard asserts on.
//!
//! There are two producers. Large, regular reports (the fleet and
//! traffic reports) call the writer directly and never build a tree.
//! Small heterogeneous reports build a [`Json`] tree and call
//! [`Json::render`], which is a walk of the tree over the same writer;
//! [`JsonWriter::json`] embeds such a tree inside a streamed document.

use std::fmt::Write as _;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys render in insertion order (no map reordering).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.json(self);
        w.finish()
    }
}

/// A streaming JSON writer with two-space indentation.
///
/// Values are written in document order. Inside an object, every value
/// is preceded by [`key`](JsonWriter::key), which returns the writer so
/// the value call chains onto it; inside an array, values are written
/// bare. [`obj`](JsonWriter::obj) and [`arr`](JsonWriter::arr) take the
/// container's body as a closure, so containers always close.
///
/// ```
/// use bas_fleet::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.obj(|w| {
///     w.key("n").uint(2);
///     w.key("xs").arr(|w| w.num(0.5));
/// });
/// assert_eq!(w.finish(), "{\n  \"n\": 2,\n  \"xs\": [\n    0.5\n  ]\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// A key was just written: the next value follows it on its line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// Ends the document with a newline and returns its text.
    pub fn finish(mut self) -> String {
        debug_assert!(self.depth == 0, "unclosed JSON container");
        self.out.push('\n');
        self.out
    }

    /// Writes an object key; the value call chains onto the result.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        debug_assert!(self.depth > 0 && !self.after_key, "key outside an object");
        self.next_line();
        self.quoted(key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        self.value();
        self.digits(n);
    }

    /// Writes a signed integer.
    pub fn int(&mut self, n: i64) {
        self.value();
        if n < 0 {
            self.out.push('-');
        }
        self.digits(n.unsigned_abs());
    }

    /// Writes a float in Rust's shortest round-trip form (deterministic
    /// per value); NaN and the infinities have no JSON form and write
    /// `null`.
    pub fn num(&mut self, v: f64) {
        self.value();
        if v.is_finite() {
            // Formatting into a `String` cannot fail.
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a string literal.
    pub fn str(&mut self, s: &str) {
        self.value();
        self.quoted(s);
    }

    /// Writes an object whose fields `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.container('{', body, '}');
    }

    /// Writes an array whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.container('[', body, ']');
    }

    /// Writes `null` for `None`, otherwise what `some` writes.
    pub fn opt<T>(&mut self, value: Option<T>, some: impl FnOnce(&mut JsonWriter, T)) {
        match value {
            None => self.null(),
            Some(v) => some(self, v),
        }
    }

    /// Writes a [`Json`] tree at the current position.
    pub fn json(&mut self, value: &Json) {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::UInt(n) => self.uint(*n),
            Json::Int(n) => self.int(*n),
            Json::Num(v) => self.num(*v),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.arr(|w| {
                for item in items {
                    w.json(item);
                }
            }),
            Json::Obj(fields) => self.obj(|w| {
                for (k, v) in fields {
                    w.key(k).json(v);
                }
            }),
        }
    }

    fn container(&mut self, open: char, body: impl FnOnce(&mut JsonWriter), close: char) {
        self.value();
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
        body(self);
        self.depth -= 1;
        if !self.empty {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(close);
        // The enclosing container now holds at least this value.
        self.empty = false;
    }

    /// Positions a value: after its key, on its own array line, or at
    /// the top level.
    fn value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.next_line();
        }
    }

    /// Separates the next item from the previous one and indents it.
    fn next_line(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('\n');
        self.pad();
    }

    /// Writes the decimal digits of `n`. A fleet report writes ~20
    /// integers per instance, and this loop costs a fraction of a
    /// `write!` through the formatting machinery.
    fn digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend(buf[start..].iter().map(|&d| char::from(d)));
    }

    fn pad(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Writes `s` quoted, escaping only what JSON requires. Every byte
    /// that needs an escape is ASCII, so unescaped runs (multibyte
    /// UTF-8 included) copy through as whole slices.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        match s.bytes().position(needs_escape) {
            None => self.out.push_str(s),
            Some(first) => {
                let mut run = 0;
                for (i, b) in s.bytes().enumerate().skip(first) {
                    if !needs_escape(b) {
                        continue;
                    }
                    self.out.push_str(&s[run..i]);
                    match b {
                        b'"' => self.out.push_str("\\\""),
                        b'\\' => self.out.push_str("\\\\"),
                        b'\n' => self.out.push_str("\\n"),
                        b'\r' => self.out.push_str("\\r"),
                        b'\t' => self.out.push_str("\\t"),
                        _ => {
                            let _ = write!(self.out, "\\u{b:04x}");
                        }
                    }
                    run = i + 1;
                }
                self.out.push_str(&s[run..]);
            }
        }
        self.out.push('"');
    }
}

fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string's escaped body, as it appears between the quotes.
    fn esc(s: &str) -> String {
        let mut w = JsonWriter::new();
        w.str(s);
        let quoted = w.finish();
        quoted[1..quoted.len() - 2].to_string()
    }

    #[test]
    fn renders_deterministically() {
        let j = Json::obj(vec![
            ("b", Json::UInt(2)),
            ("a", Json::Num(1.5)),
            ("s", Json::Str("x\"y".into())),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let one = j.render();
        let two = j.render();
        assert_eq!(one, two);
        // Insertion order preserved: "b" before "a".
        assert!(one.find("\"b\"").expect("b key") < one.find("\"a\"").expect("a key"));
        assert!(one.contains("\\\"y"));
        assert!(one.ends_with('\n'));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(esc("a\u{1}b"), "a\\u0001b");
        assert_eq!(esc("a\tb\nc"), "a\\tb\\nc");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
        assert_eq!(Json::Obj(Vec::new()).render(), "{}\n");
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("a").arr(|_| {});
            w.key("o").obj(|_| {});
        });
        assert_eq!(w.finish(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    fn nesting_indents_two_spaces_per_level() {
        let j = Json::obj(vec![(
            "l1",
            Json::Arr(vec![Json::obj(vec![(
                "l3",
                Json::Arr(vec![Json::UInt(1), Json::Arr(vec![Json::Int(-2)])]),
            )])]),
        )]);
        let expected = "{\n  \"l1\": [\n    {\n      \"l3\": [\n        1,\n        [\n          \
                        -2\n        ]\n      ]\n    }\n  ]\n}\n";
        assert_eq!(j.render(), expected);
    }

    #[test]
    fn embedded_tree_picks_up_the_enclosing_indent() {
        let inner = Json::obj(vec![("x", Json::UInt(1)), ("y", Json::Arr(Vec::new()))]);
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("schema").str("s");
            w.key("deep").obj(|w| {
                w.key("report").json(&inner);
            });
        });
        let expected = "{\n  \"schema\": \"s\",\n  \"deep\": {\n    \"report\": {\n      \
                        \"x\": 1,\n      \"y\": []\n    }\n  }\n}\n";
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn integers_match_std_formatting() {
        let unsigned = [0, 7, 9, 10, 99, 100, 1_000_000_007, u64::MAX];
        let signed = [0, -1, 9, -10, i64::MIN, i64::MAX];
        let mut w = JsonWriter::new();
        w.arr(|w| {
            unsigned.iter().for_each(|&n| w.uint(n));
            signed.iter().for_each(|&n| w.int(n));
        });
        let expected: Vec<String> = unsigned
            .iter()
            .map(u64::to_string)
            .chain(signed.iter().map(i64::to_string))
            .collect();
        let text = w.finish();
        let got: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn non_finite_numbers_are_null_inside_containers() {
        let mut w = JsonWriter::new();
        w.arr(|w| {
            w.num(f64::NEG_INFINITY);
            w.num(f64::NAN);
            w.num(0.1);
        });
        assert_eq!(w.finish(), "[\n  null,\n  null,\n  0.1\n]\n");
    }

    #[test]
    fn escapes_fast_and_slow_paths() {
        // Fast path: nothing to escape, multibyte UTF-8 included.
        assert_eq!(esc("plain ascii"), "plain ascii");
        assert_eq!(esc("22 °C — ñ ✓"), "22 °C — ñ ✓");
        // Slow path: each escape class, with runs around it.
        assert_eq!(esc("q\"b\\t\tu\u{1}"), "q\\\"b\\\\t\\tu\\u0001");
        assert_eq!(esc("\"°\u{1f}"), "\\\"°\\u001f");
        assert_eq!(esc("\r\n"), "\\r\\n");
        // DEL is not a control character in JSON.
        assert_eq!(esc("\u{7f}"), "\u{7f}");
        // Keys take the same path.
        let mut w = JsonWriter::new();
        w.obj(|w| w.key("k\"é").null());
        assert_eq!(w.finish(), "{\n  \"k\\\"é\": null\n}\n");
    }

    #[test]
    fn tree_and_direct_calls_write_the_same_bytes() {
        let tree = Json::obj(vec![
            ("s", Json::Str("a\tb".into())),
            ("u", Json::UInt(u64::MAX)),
            ("i", Json::Int(i64::MIN)),
            ("f", Json::Num(1e-7)),
            ("b", Json::Bool(false)),
            ("n", Json::Null),
            (
                "a",
                Json::Arr(vec![Json::Num(2.5), Json::Obj(Vec::new()), Json::Null]),
            ),
        ]);
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("s").str("a\tb");
            w.key("u").uint(u64::MAX);
            w.key("i").int(i64::MIN);
            w.key("f").num(1e-7);
            w.key("b").bool(false);
            w.key("n").opt(None::<u64>, JsonWriter::uint);
            w.key("a").arr(|w| {
                w.num(2.5);
                w.obj(|_| {});
                w.null();
            });
        });
        assert_eq!(w.finish(), tree.render());
    }
}
