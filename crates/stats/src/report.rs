//! Paper-style report rendering.
//!
//! The paper's evaluation figures are stacked bars normalized to MESI within
//! each workload group. [`StackedTable`] reproduces that presentation as an
//! ASCII table: each group (a kernel or application) gets one bar per
//! protocol, each bar is split into stacked components, and all bars in a
//! group are expressed as a percentage of the group's *first* bar (MESI).
//!
//! # Examples
//!
//! ```
//! use dvs_stats::report::StackedTable;
//!
//! let mut t = StackedTable::new("Execution time", &["compute", "stall"]);
//! t.bar("counter", "M", &[40.0, 60.0]);
//! t.bar("counter", "DS", &[40.0, 30.0]);
//! let text = t.render();
//! assert!(text.contains("counter"));
//! assert!(text.contains("70.0%")); // DS total normalized to M
//! ```

use std::fmt::Write as _;

/// A stacked-bar table normalized to the first bar of each group.
#[derive(Debug, Clone)]
pub struct StackedTable {
    title: String,
    components: Vec<String>,
    groups: Vec<Group>,
}

#[derive(Debug, Clone)]
struct Group {
    name: String,
    bars: Vec<Bar>,
}

#[derive(Debug, Clone)]
struct Bar {
    name: String,
    values: Vec<f64>,
}

impl StackedTable {
    /// Creates a table titled `title` whose bars stack the named components.
    pub fn new(title: &str, components: &[&str]) -> Self {
        StackedTable {
            title: title.to_owned(),
            components: components.iter().map(|s| (*s).to_owned()).collect(),
            groups: Vec::new(),
        }
    }

    /// Appends a bar named `bar` (e.g. a protocol) to group `group` (e.g. a
    /// kernel). `values` are absolute quantities, one per component, in the
    /// order given to [`StackedTable::new`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of components.
    pub fn bar(&mut self, group: &str, bar: &str, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.components.len(),
            "bar has {} values but table has {} components",
            values.len(),
            self.components.len()
        );
        let g = match self.groups.iter_mut().find(|g| g.name == group) {
            Some(g) => g,
            None => {
                self.groups.push(Group {
                    name: group.to_owned(),
                    bars: Vec::new(),
                });
                self.groups.last_mut().expect("just pushed")
            }
        };
        g.bars.push(Bar {
            name: bar.to_owned(),
            values: values.to_vec(),
        });
    }

    /// Normalized total (in percent of the group's first bar) for one bar, or
    /// `None` if the group/bar does not exist.
    pub fn normalized_total(&self, group: &str, bar: &str) -> Option<f64> {
        let g = self.groups.iter().find(|g| g.name == group)?;
        let base: f64 = g.bars.first()?.values.iter().sum();
        let b = g.bars.iter().find(|b| b.name == bar)?;
        let total: f64 = b.values.iter().sum();
        Some(if base > 0.0 {
            total / base * 100.0
        } else {
            0.0
        })
    }

    /// Renders the table as ASCII text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let group_w = self
            .groups
            .iter()
            .map(|g| g.name.len())
            .chain(["group".len()])
            .max()
            .unwrap_or(5);
        let bar_w = self
            .groups
            .iter()
            .flat_map(|g| g.bars.iter().map(|b| b.name.len()))
            .chain(["bar".len()])
            .max()
            .unwrap_or(3);

        let _ = write!(
            out,
            "{:group_w$}  {:bar_w$}  {:>8}",
            "group", "bar", "total"
        );
        for c in &self.components {
            let _ = write!(out, "  {:>10}", c);
        }
        out.push('\n');

        for g in &self.groups {
            let base: f64 = g.bars.first().map(|b| b.values.iter().sum()).unwrap_or(0.0);
            for (i, b) in g.bars.iter().enumerate() {
                let name = if i == 0 { g.name.as_str() } else { "" };
                let total: f64 = b.values.iter().sum();
                let pct = if base > 0.0 {
                    total / base * 100.0
                } else {
                    0.0
                };
                let _ = write!(out, "{:group_w$}  {:bar_w$}  {:>7.1}%", name, b.name, pct);
                for v in &b.values {
                    let vp = if base > 0.0 { v / base * 100.0 } else { 0.0 };
                    let _ = write!(out, "  {:>9.1}%", vp);
                }
                out.push('\n');
            }
        }
        out
    }

    /// Geometric mean of the normalized totals of bar `bar` across all groups
    /// (skipping groups that lack the bar). This is how the summary numbers
    /// quoted in the paper's text ("22% lower on average") are computed.
    pub fn geomean_total(&self, bar: &str) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for g in &self.groups {
            if let Some(pct) = self.normalized_total(&g.name, bar) {
                if pct > 0.0 {
                    log_sum += pct.ln();
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some((log_sum / n as f64).exp())
        }
    }
}

/// A minimal JSON object builder for machine-readable benchmark artifacts
/// (`BENCH_*.json`). Hand-rolled so the workspace stays dependency-free: it
/// supports string/number/bool scalars, nested objects, and arrays of
/// objects — exactly what the bench targets emit, nothing more.
///
/// # Examples
///
/// ```
/// use dvs_stats::report::JsonObject;
///
/// let mut inner = JsonObject::new();
/// inner.u64("cycles", 1200);
/// let mut obj = JsonObject::new();
/// obj.str("bench", "chaos_matrix").object("mesi", inner);
/// assert!(obj.render().contains("\"cycles\": 1200"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

#[derive(Debug, Clone)]
enum JsonValue {
    Str(String),
    UInt(u64),
    Float(f64),
    Bool(bool),
    Obj(JsonObject),
    Arr(Vec<JsonObject>),
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, JsonValue::Str(value.to_owned()))
    }

    /// Appends an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, JsonValue::UInt(value))
    }

    /// Appends a floating-point member (non-finite values render as `null`).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, JsonValue::Float(value))
    }

    /// Appends a floating-point member only when `value` is finite. Derived
    /// ratios (speedups, rates) that degenerate — a zero-length wall-clock
    /// interval, an empty denominator — are *omitted* rather than rendered
    /// as `null`, so consumers can treat member presence as validity.
    pub fn f64_opt(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.f64(key, value)
        } else {
            self
        }
    }

    /// Appends a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, JsonValue::Bool(value))
    }

    /// Appends a nested object member.
    pub fn object(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.push(key, JsonValue::Obj(value))
    }

    /// Appends an array-of-objects member.
    pub fn array(&mut self, key: &str, values: Vec<JsonObject>) -> &mut Self {
        self.push(key, JsonValue::Arr(values))
    }

    fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        self.entries.push((key.to_owned(), value));
        self
    }

    /// Renders the object as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        if self.entries.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        let pad = "  ".repeat(indent + 1);
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let _ = write!(out, "{pad}\"{}\": ", json_escape(key));
            match value {
                JsonValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", json_escape(s));
                }
                JsonValue::UInt(n) => {
                    let _ = write!(out, "{n}");
                }
                JsonValue::Float(f) if f.is_finite() => {
                    let _ = write!(out, "{f}");
                }
                JsonValue::Float(_) => out.push_str("null"),
                JsonValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                JsonValue::Obj(o) => o.write(out, indent + 1),
                JsonValue::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                    } else {
                        out.push_str("[\n");
                        let item_pad = "  ".repeat(indent + 2);
                        for (j, item) in items.iter().enumerate() {
                            out.push_str(&item_pad);
                            item.write(out, indent + 2);
                            if j + 1 < items.len() {
                                out.push(',');
                            }
                            out.push('\n');
                        }
                        let _ = write!(out, "{pad}]");
                    }
                }
            }
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Version stamped into every `BENCH_*.json` artifact. Bump when the shared
/// envelope (not a bench's payload) changes shape.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Number of hardware threads the host exposes (1 if unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident-set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable — the
/// caller omits the field rather than guessing.
pub fn peak_rss_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The one emitter behind every `BENCH_*.json` file. Each bench used to
/// hand-assemble its own root object; this wraps [`JsonObject`] with the
/// shared envelope — `bench` name, `schema_version`, `host_parallelism`,
/// `peak_rss_bytes` (when procfs is available), and a caller-supplied
/// timestamp — so all artifacts agree on those fields and the payload stays
/// bench-specific. Peak RSS is sampled at assembly time, which benches do
/// last, so it reflects the run's high-water mark.
///
/// The timestamp is passed in (not read from the clock here) so artifact
/// assembly itself stays deterministic and testable; pass `""` to omit it.
///
/// # Examples
///
/// ```
/// use dvs_stats::report::BenchArtifact;
///
/// let mut a = BenchArtifact::new("fig3", "");
/// a.body().u64("cells", 144);
/// let s = a.render();
/// assert!(s.contains("\"bench\": \"fig3\""));
/// assert!(s.contains("\"schema_version\": 1"));
/// assert!(s.contains("\"host_parallelism\""));
/// ```
#[derive(Debug, Clone)]
pub struct BenchArtifact {
    body: JsonObject,
}

impl BenchArtifact {
    /// Starts an artifact for bench `name` with the shared envelope fields.
    pub fn new(name: &str, timestamp: &str) -> Self {
        let mut body = JsonObject::new();
        body.str("bench", name)
            .u64("schema_version", BENCH_SCHEMA_VERSION)
            .u64("host_parallelism", host_parallelism() as u64);
        if let Some(rss) = peak_rss_bytes() {
            body.u64("peak_rss_bytes", rss);
        }
        if !timestamp.is_empty() {
            body.str("timestamp", timestamp);
        }
        BenchArtifact { body }
    }

    /// The payload object; append bench-specific members here.
    pub fn body(&mut self) -> &mut JsonObject {
        &mut self.body
    }

    /// Appends the optional `telemetry` summary block (event counts, metric
    /// trees). Benches that ran without a telemetry sink never call this, so
    /// the member is absent — omitted, not `null` — in their artifacts.
    pub fn telemetry(&mut self, summary: JsonObject) -> &mut Self {
        self.body.object("telemetry", summary);
        self
    }

    /// Renders the artifact as pretty-printed JSON.
    pub fn render(&self) -> String {
        self.body.render()
    }

    /// Writes the artifact to `path` and prints a `wrote <path>` line.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written (benches treat that as fatal).
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

/// A plain key/value listing (used for the paper's parameter tables).
#[derive(Debug, Clone, Default)]
pub struct ParamTable {
    title: String,
    rows: Vec<(String, String)>,
}

impl ParamTable {
    /// Creates an empty listing titled `title`.
    pub fn new(title: &str) -> Self {
        ParamTable {
            title: title.to_owned(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.rows.push((key.to_owned(), value.to_string()));
        self
    }

    /// Renders the listing as ASCII text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let w = self.rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &self.rows {
            let _ = writeln!(out, "{:w$}  {}", k, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_relative_to_first_bar() {
        let mut t = StackedTable::new("t", &["a", "b"]);
        t.bar("k", "M", &[50.0, 50.0]);
        t.bar("k", "DS", &[25.0, 25.0]);
        assert_eq!(t.normalized_total("k", "M"), Some(100.0));
        assert_eq!(t.normalized_total("k", "DS"), Some(50.0));
    }

    #[test]
    fn missing_group_or_bar_is_none() {
        let t = StackedTable::new("t", &["a"]);
        assert_eq!(t.normalized_total("nope", "M"), None);
    }

    #[test]
    fn render_contains_all_names() {
        let mut t = StackedTable::new("Exec", &["c1"]);
        t.bar("g1", "M", &[1.0]);
        t.bar("g1", "DS0", &[2.0]);
        t.bar("g2", "M", &[3.0]);
        let s = t.render();
        assert!(s.contains("Exec"));
        assert!(s.contains("g1"));
        assert!(s.contains("g2"));
        assert!(s.contains("DS0"));
        assert!(s.contains("200.0%"));
    }

    #[test]
    fn geomean_of_equal_ratios() {
        let mut t = StackedTable::new("t", &["a"]);
        t.bar("g1", "M", &[100.0]);
        t.bar("g1", "DS", &[80.0]);
        t.bar("g2", "M", &[10.0]);
        t.bar("g2", "DS", &[8.0]);
        let g = t.geomean_total("DS").unwrap();
        assert!((g - 80.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_mixes_multiplicatively() {
        let mut t = StackedTable::new("t", &["a"]);
        t.bar("g1", "M", &[100.0]);
        t.bar("g1", "DS", &[50.0]);
        t.bar("g2", "M", &[100.0]);
        t.bar("g2", "DS", &[200.0]);
        let g = t.geomean_total("DS").unwrap();
        assert!((g - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "components")]
    fn wrong_arity_panics() {
        let mut t = StackedTable::new("t", &["a", "b"]);
        t.bar("g", "M", &[1.0]);
    }

    #[test]
    fn json_object_renders_nested_structure() {
        let mut run = JsonObject::new();
        run.u64("cycles", 1234).bool("invariants", true);
        let mut arr_item = JsonObject::new();
        arr_item.str("kernel", "tatas counter");
        let mut root = JsonObject::new();
        root.str("bench", "chaos")
            .f64("overhead", 1.25)
            .object("run", run)
            .array("kernels", vec![arr_item]);
        let s = root.render();
        assert!(s.contains("\"bench\": \"chaos\""));
        assert!(s.contains("\"overhead\": 1.25"));
        assert!(s.contains("\"cycles\": 1234"));
        assert!(s.contains("\"invariants\": true"));
        assert!(s.contains("\"kernel\": \"tatas counter\""));
        assert!(s.ends_with("}\n"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let mut o = JsonObject::new();
        o.str("msg", "a \"quoted\"\nline\\");
        let s = o.render();
        assert!(s.contains(r#""a \"quoted\"\nline\\""#));
    }

    #[test]
    fn json_non_finite_floats_render_as_null() {
        let mut o = JsonObject::new();
        o.f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        let s = o.render();
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"inf\": null"));
    }

    #[test]
    fn optional_floats_are_omitted_not_null() {
        let mut o = JsonObject::new();
        o.f64_opt("kept", 1.5)
            .f64_opt("nan", f64::NAN)
            .f64_opt("inf", f64::INFINITY);
        let s = o.render();
        assert!(s.contains("\"kept\": 1.5"));
        assert!(!s.contains("nan"));
        assert!(!s.contains("inf"));
        assert!(!s.contains("null"));
    }

    #[test]
    fn bench_artifact_telemetry_block_is_optional() {
        // Absent unless attached — omitted, not null.
        let s = BenchArtifact::new("fig3", "").render();
        assert!(!s.contains("telemetry"));
        let mut summary = JsonObject::new();
        summary.u64("events", 42);
        let mut a = BenchArtifact::new("fig3", "");
        a.telemetry(summary);
        let s = a.render();
        assert!(s.contains("\"telemetry\": {"));
        assert!(s.contains("\"events\": 42"));
    }

    #[test]
    fn peak_rss_is_plausible_and_in_the_envelope() {
        // procfs hosts (the CI image is Linux) must report a nonzero peak
        // that covers at least the binary's own footprint.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
            let s = BenchArtifact::new("x", "").render();
            assert!(s.contains("\"peak_rss_bytes\""));
        }
    }

    #[test]
    fn bench_artifact_has_shared_envelope() {
        let mut a = BenchArtifact::new("campaign", "2026-01-01");
        a.body().u64("runs", 3);
        let s = a.render();
        assert!(s.contains("\"bench\": \"campaign\""));
        assert!(s.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(s.contains("\"host_parallelism\""));
        assert!(s.contains("\"timestamp\": \"2026-01-01\""));
        assert!(s.contains("\"runs\": 3"));
        // Empty timestamp omits the field entirely.
        let s = BenchArtifact::new("campaign", "").render();
        assert!(!s.contains("timestamp"));
    }

    #[test]
    fn param_table_renders_rows() {
        let mut p = ParamTable::new("Table 1");
        p.row("Core frequency", "2 GHz").row("L1", "32KB");
        let s = p.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("2 GHz"));
        assert!(s.contains("32KB"));
    }
}
