//! A minimal JSON writer for the harness's result lines. Reading goes
//! through `bevra_report::json`.

/// A JSON number, or `null` for a non-finite value.
#[must_use]
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object built field by field, rendered on one line.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a field whose value is already rendered JSON.
    #[must_use]
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push((key.to_owned(), value));
        self
    }

    /// Add a number field.
    #[must_use]
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    /// Add a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Render as one line.
    #[must_use]
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON array of already rendered values.
#[must_use]
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_report::json::JsonValue;

    #[test]
    fn renders_parseable_json() {
        let line = Obj::new()
            .num("a", 0.1)
            .num("b", f64::NAN)
            .str("c", "q\"\\\n")
            .raw("d", array([num(1e-300), num(2.0)]))
            .render();
        let v = JsonValue::parse(&line).expect("parses");
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(0.1));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("q\"\\\n"));
        assert_eq!(
            v.get("d").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
    }
}
