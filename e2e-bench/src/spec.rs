//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! at build time: the workload names, the metrics with their units and
//! directions, and the end-to-end bounds. Keeping one copy means the
//! harness cannot print a metric the definition does not name, and a bound
//! changed there is the bound `compare` applies.

use bevra_report::json::JsonValue;
use std::sync::OnceLock;

/// One metric of the benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, e.g. `wall_s`.
    pub name: String,
    /// Unit, e.g. `s`.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Metrics of the untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced run.
    pub per_layer: Vec<MetricDef>,
}

const DEFINITION: &str = include_str!("../../BENCHMARK.json");

fn metrics(doc: &JsonValue, key: &str) -> Result<Vec<MetricDef>, String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("`{key}` is not an array"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("{key}: missing `{k}`"))
            };
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

/// Parse a benchmark definition document.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = JsonValue::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload has no name")?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("missing `run_seconds`")?,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// The definition this binary was built with.
///
/// # Panics
///
/// Panics if the committed `BENCHMARK.json` does not parse, which the
/// crate's tests rule out.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(DEFINITION).expect("BENCHMARK.json is well-formed"))
}
