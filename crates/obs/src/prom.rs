//! Prometheus text exposition (format 0.0.4).
//!
//! The encoder is deliberately boring: families sorted by name, series
//! sorted by label set, histogram buckets accumulated into the cumulative
//! `_bucket{le=…}` form the format requires. Determinism is a feature —
//! the golden-file test diffs a whole scrape byte-for-byte (after digit
//! normalization), and the seeded property tests in `tests/properties.rs`
//! check the escaping and ordering rules on arbitrary inputs.

use crate::metrics::{series_key, Metric, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps an arbitrary string onto a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid bytes become `_`, and a leading
/// digit gains a `_` prefix. Empty input becomes `"_"`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Maps an arbitrary string onto a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
pub fn sanitize_label_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphabetic() || ch == '_' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Escapes a HELP string: `\` → `\\`, newline → `\n` (quotes are legal).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Formats a float the way Prometheus clients conventionally do: integers
/// without a trailing `.0`, everything else with nanosecond (1e-9)
/// precision, trailing zeros trimmed. The fixed precision keeps scaled
/// bucket bounds free of binary-float noise (`1000 × 1e-9` must render as
/// `0.000001`, not `0.0000010000000000000002`).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    let mut s = format!("{v:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn label_block_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push(("le".to_string(), le.to_string()));
    label_block(&all)
}

/// Renders every series in `registry` as Prometheus text exposition.
///
/// Families appear in sorted name order with one `# HELP` / `# TYPE`
/// header each; series within a family are sorted by their label sets, so
/// the output is a pure function of registry contents.
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    // Family name -> (type, help, rendered sample lines keyed for sorting).
    struct Family {
        kind: &'static str,
        help: &'static str,
        lines: Vec<(String, String)>,
    }
    let mut families: BTreeMap<String, Family> = BTreeMap::new();

    registry.for_each(|s| {
        let (kind, lines) = match &s.metric {
            Metric::Counter(c) => (
                "counter",
                vec![(
                    series_key(&s.name, &s.labels),
                    format!("{}{} {}\n", s.name, label_block(&s.labels), c.get()),
                )],
            ),
            Metric::Gauge(g) => (
                "gauge",
                vec![(
                    series_key(&s.name, &s.labels),
                    format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels),
                        fmt_value(g.get() as f64 * g.unit_scale())
                    ),
                )],
            ),
            Metric::Histogram(h) => {
                let snap = h.snapshot();
                let scale = snap.unit_scale;
                let mut text = String::new();
                let mut cum = 0u64;
                for (i, &c) in snap.counts.iter().enumerate() {
                    cum += c;
                    let le = if i < snap.bounds.len() {
                        fmt_value(snap.bounds[i] as f64 * scale)
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = writeln!(
                        text,
                        "{}_bucket{} {}",
                        s.name,
                        label_block_with_le(&s.labels, &le),
                        cum
                    );
                }
                let _ = writeln!(
                    text,
                    "{}_sum{} {}",
                    s.name,
                    label_block(&s.labels),
                    fmt_value(snap.sum as f64 * scale)
                );
                let _ = writeln!(
                    text,
                    "{}_count{} {}",
                    s.name,
                    label_block(&s.labels),
                    snap.count
                );
                ("histogram", vec![(series_key(&s.name, &s.labels), text)])
            }
        };
        let fam = families.entry(s.name.clone()).or_insert(Family {
            kind,
            help: s.help,
            lines: Vec::new(),
        });
        fam.lines.extend(lines);
    });

    let mut out = String::new();
    for (name, mut fam) in families {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(fam.help));
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
        fam.lines.sort();
        for (_, line) in fam.lines {
            out.push_str(&line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_metric_name("bad-name.x"), "bad_name_x");
        assert_eq!(sanitize_metric_name("9lead"), "_9lead");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_label_name("le:gal"), "le_gal");
        assert_eq!(sanitize_label_name("0x"), "_0x");
    }

    #[test]
    fn escapes_label_values_and_help() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_help("a\\b\"c\nd"), "a\\\\b\"c\\nd");
    }

    #[test]
    fn renders_counters_gauges_sorted() {
        let r = MetricsRegistry::new();
        r.counter_with("zz_total", "last", &[]).add(3);
        r.counter_with("aa_total", "first", &[("op", "b")]).add(1);
        r.counter_with("aa_total", "first", &[("op", "a")]).add(2);
        r.gauge("mm_gauge", "middle").set(-4);
        let text = render_prometheus(&r);
        let a = text.find("aa_total").unwrap();
        let m = text.find("mm_gauge").unwrap();
        let z = text.find("zz_total").unwrap();
        assert!(a < m && m < z, "families sorted by name");
        let sa = text.find("aa_total{op=\"a\"}").unwrap();
        let sb = text.find("aa_total{op=\"b\"}").unwrap();
        assert!(sa < sb, "series sorted by label set");
        assert!(text.contains("# HELP aa_total first\n"));
        assert!(text.contains("# TYPE aa_total counter\n"));
        assert!(text.contains("mm_gauge -4\n"));
    }

    #[test]
    fn scaled_gauges_render_in_exposition_units() {
        let r = MetricsRegistry::new();
        r.gauge_scaled("build_seconds", "h", 1e-6).set(1_250_000);
        assert!(render_prometheus(&r).contains("build_seconds 1.25\n"));
        assert_eq!(r.gauge_values()["build_seconds"], 1_250_000, "raw units");
    }

    #[test]
    fn renders_cumulative_histogram() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with("lat_seconds", "h", &[], &[1_000, 1_000_000], 1e-9);
        h.observe(10); // first bucket
        h.observe(500_000); // second bucket
        h.observe(500_000);
        h.observe(5_000_000); // overflow
        let text = render_prometheus(&r);
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.000001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 3\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_seconds_count 4\n"));
    }

    #[test]
    fn single_help_type_per_family() {
        let r = MetricsRegistry::new();
        r.counter_with("fam_total", "h", &[("k", "a")]).inc();
        r.counter_with("fam_total", "h", &[("k", "b")]).inc();
        let text = render_prometheus(&r);
        assert_eq!(text.matches("# HELP fam_total").count(), 1);
        assert_eq!(text.matches("# TYPE fam_total").count(), 1);
    }
}
