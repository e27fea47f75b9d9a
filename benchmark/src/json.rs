//! A JSON value that renders itself. The workspace carries no serde, and
//! the benchmark only ever writes JSON, except for one number it reads
//! back from its own output ([`metric_value`]).

use std::fmt::Write as _;

pub enum J {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
    /// Already-rendered JSON, embedded as is (a child run's detail file).
    Raw(String),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators inside nested values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `{}` prints the shortest digits that read back as the same
            // f64, so a measured value keeps every digit it has.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => write_str(s, out),
            J::Raw(s) => out.push_str(s.trim()),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Read `metrics.<name>.value` back out of a result line this program
/// printed (`"<name>": {"value": <number>, ...`). Not a JSON parser: it
/// relies on [`J::render`]'s layout.
pub fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reads_back_a_metric() {
        let line = J::obj([
            ("correct", J::Bool(true)),
            (
                "metrics",
                J::obj([(
                    "latency_p50_ms",
                    J::obj([("value", J::Num(1.25)), ("unit", J::str("ms"))]),
                )]),
            ),
        ])
        .render();
        assert_eq!(
            line,
            r#"{"correct": true, "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(metric_value(&line, "latency_p50_ms"), Some(1.25));
        assert_eq!(metric_value(&line, "absent"), None);
    }
}
