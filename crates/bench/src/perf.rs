//! The JSON value, writer and parser that `f1_comparison` and the load
//! benchmark (`benchmark/`, `loadbench`) share.
//!
//! `f1_comparison` records the paper's fidelity tables as the two
//! sections of `BENCH_scenarios.json` through [`merge_report`];
//! `loadbench`'s suite mode [`parse`]s the report each child process
//! prints. Speed figures live in the load benchmark alone.
//!
//! The workspace has no JSON dependency, so the writer is a tiny
//! hand-rolled serializer over a [`Value`] tree: objects preserve
//! insertion order, floats are emitted with enough precision to
//! round-trip, and strings are escaped per RFC 8259.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A minimal JSON value: everything the reports need, nothing more.
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON string.
    Str(String),
    /// JSON number from an integer.
    Int(i64),
    /// JSON number from a float (non-finite values serialize as `null`).
    Float(f64),
    /// JSON boolean.
    Bool(bool),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved verbatim.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for an empty object, filled via [`Value::push`].
    pub fn object() -> Self {
        Value::Object(Vec::new())
    }

    /// Append a key/value pair; panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: Value) -> &mut Self {
        match self {
            Value::Object(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Value::push on a non-object"),
        }
        self
    }

    /// Serialize with two-space indentation.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Str(s) => write_escaped(out, s),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a decimal point
                    // or exponent so the token stays a JSON number.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parse the JSON subset [`Value::to_json`] emits (plus arbitrary
/// whitespace): a report file read back before one section of it is
/// rewritten, or a child process's report. Not a general JSON parser —
/// `null` degrades to a non-finite [`Value::Float`] exactly as the
/// writer degrades non-finite floats to `null`, and containers nested
/// more than 64 deep are an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", b as char))
    }
}

/// Containers [`parse`] follows inwards — ten times what the writers
/// emit. `parse_value` recurses once per `[` / `{` of input that comes
/// from a file or a child process, so without a cap a damaged report
/// overflows the stack instead of returning `Err`.
const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                entries.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Float(f64::NAN))
        }
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        code = code * 16 + h.to_digit(16).ok_or("bad \\u escape")?;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if token.bytes().all(|b| matches!(b, b'-' | b'0'..=b'9')) {
        if let Ok(i) = token.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    token
        .parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("bad number {token:?} at offset {start}"))
}

fn report_path(file_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name)
}

/// Replace one top-level `section` of `<workspace root>/<file_name>`
/// with `record`, preserving every other section — how
/// `f1_comparison`'s headline and scenario tables share
/// `BENCH_scenarios.json` without clobbering each other. A missing or
/// unparseable file starts fresh; other sections' order is preserved.
pub fn merge_report(file_name: &str, section: &str, record: Value) -> PathBuf {
    let path = report_path(file_name);
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .filter(|v| matches!(v, Value::Object(_)))
        .unwrap_or_else(Value::object);
    let Value::Object(entries) = &mut root else {
        unreachable!("filtered to objects above")
    };
    match entries.iter_mut().find(|(key, _)| key == section) {
        Some((_, slot)) => *slot = record,
        None => entries.push((section.to_string(), record)),
    }
    std::fs::write(&path, root.to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_records_with_stable_order() {
        let mut row = Value::object();
        row.push("format", Value::Str("i8".into()))
            .push("q_per_ms", Value::Float(3.25))
            .push("bytes_per_query", Value::Int(64))
            .push("exact", Value::Bool(true));
        let mut root = Value::object();
        root.push("bench", Value::Str("f1_comparison".into()))
            .push("rows", Value::Array(vec![row]));
        let json = root.to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"f1_comparison\",\n  \"rows\": [\n    {\n      \
             \"format\": \"i8\",\n      \"q_per_ms\": 3.25,\n      \
             \"bytes_per_query\": 64,\n      \"exact\": true\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn floats_round_trip_and_non_finite_degrade_to_null() {
        let v = Value::Array(vec![
            Value::Float(0.1),
            Value::Float(f64::NAN),
            Value::Float(1.0),
        ]);
        assert_eq!(v.to_json(), "[\n  0.1,\n  null,\n  1.0\n]\n");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Value::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn parse_round_trips_everything_the_writer_emits() {
        let mut row = Value::object();
        row.push("format", Value::Str("i8 \"quoted\"\n".into()))
            .push("q_per_ms", Value::Float(3.25))
            .push("count", Value::Int(-64))
            .push("exact", Value::Bool(true))
            .push("skipped", Value::Bool(false))
            .push("nan", Value::Float(f64::NAN))
            .push("empty_arr", Value::Array(vec![]))
            .push("empty_obj", Value::object());
        let mut root = Value::object();
        root.push("bench", Value::Str("x".into()))
            .push("rows", Value::Array(vec![row]));
        let json = root.to_json();
        let reparsed = parse(&json).expect("parses");
        // NaN != NaN breaks naive equality; compare re-serializations
        // (non-finite floats degrade to null on both sides).
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn parse_rejects_garbage_with_an_error() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());

        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Unbounded recursion over 100 000 brackets needs tens of MiB
        // of stack and would abort the process; on 256 KiB only the
        // depth cap can return at all.
        let hostile = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| parse(&"[{\"a\":".repeat(50_000)))
            .expect("thread spawns")
            .join()
            .expect("parser returns");
        assert!(hostile.is_err());
    }

    #[test]
    fn merge_report_replaces_one_section_and_keeps_the_rest() {
        let file = "BENCH_test_merge.json";
        let path = report_path(file);
        let _ = std::fs::remove_file(&path);

        let mut first = Value::object();
        first.push("q_per_s", Value::Float(100.0));
        merge_report(file, "micro_batching", first);

        let mut second = Value::object();
        second.push("hit_rate", Value::Float(0.9));
        merge_report(file, "net", second);

        let mut replacement = Value::object();
        replacement.push("q_per_s", Value::Float(250.0));
        let written = merge_report(file, "micro_batching", replacement);

        let root = parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        let Value::Object(entries) = root else {
            panic!("root is an object")
        };
        assert_eq!(entries.len(), 2, "both sections present");
        assert_eq!(entries[0].0, "micro_batching", "section order preserved");
        assert_eq!(entries[1].0, "net");
        let Value::Object(section) = &entries[0].1 else {
            panic!("section is an object")
        };
        assert!(
            matches!(section[0].1, Value::Float(f) if f == 250.0),
            "replaced section carries the new figure"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_report_scenarios_file_keeps_headline_and_scenarios_apart() {
        // The shape BENCH_scenarios.json actually has: f1_comparison
        // writes its Section V-B `headline` and the obfuscation
        // `scenarios` table as two sections of one file, in that
        // order, and a rerun of either must never clobber the other.
        let file = "BENCH_test_scenarios.json";
        let path = report_path(file);
        let _ = std::fs::remove_file(&path);

        let mut headline = Value::object();
        headline
            .push("model_f1", Value::Float(0.997))
            .push("ids_f1", Value::Float(0.987));
        merge_report(file, "headline", headline);

        let mut row = Value::object();
        row.push("scenario", Value::Str("quoting-obfuscation".into()))
            .push("ensemble_f1", Value::Float(0.93))
            .push("best_lm_f1", Value::Float(0.90));
        let mut scenarios = Value::object();
        scenarios.push("rows", Value::Array(vec![row]));
        merge_report(file, "scenarios", scenarios);

        // A scenario-table rerun replaces its own section only.
        let mut rerun = Value::object();
        rerun.push("rows", Value::Array(vec![]));
        let written = merge_report(file, "scenarios", rerun);

        let root = parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        let Value::Object(entries) = root else {
            panic!("root is an object")
        };
        assert_eq!(
            entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["headline", "scenarios"],
            "both sections present, write order preserved"
        );
        let Value::Object(headline) = &entries[0].1 else {
            panic!("headline section is an object")
        };
        assert!(
            matches!(headline[0].1, Value::Float(f) if f == 0.997),
            "the headline figures survive the scenario rerun"
        );
        assert!(
            matches!(&entries[1].1, Value::Object(s)
                if matches!(&s[0].1, Value::Array(rows) if rows.is_empty())),
            "the rerun replaced the scenario rows"
        );
        let _ = std::fs::remove_file(&path);
    }
}
