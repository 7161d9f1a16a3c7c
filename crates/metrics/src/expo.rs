//! Prometheus text-exposition parsing and validation.
//!
//! [`Registry::render`](crate::Registry::render) produces the text; this
//! module is the consumer side: `spt-top` parses scrapes with
//! [`parse_exposition`], and tests/CI check daemon output with
//! [`validate_exposition`]. Both understand the subset of the format the
//! registry emits (version 0.0.4: `# HELP`, `# TYPE`, sample lines with
//! optional labels, histogram `_bucket`/`_sum`/`_count` conventions).

use std::collections::HashMap;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label key/value pairs in source order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed scrape: samples in source order plus the `# TYPE` map.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    pub samples: Vec<Sample>,
    /// Metric family name -> advertised type ("counter" | "gauge" | ...).
    pub types: HashMap<String, String>,
}

impl Scrape {
    /// First sample with this exact name and no label constraints.
    pub fn get(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Value of the first sample matching `name` and all `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
            .map(|s| s.value)
    }

    /// Sum of every sample with this name (all label combinations).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Cumulative `(le, count)` pairs for one histogram series, sorted by
    /// bound with `+Inf` last — the shape
    /// [`quantile_from_cumulative`](crate::quantile_from_cumulative) expects.
    pub fn histogram_cumulative(&self, name: &str, labels: &[(&str, &str)]) -> Vec<(f64, f64)> {
        let bucket = format!("{name}_bucket");
        let mut out: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.name == bucket && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
            .filter_map(|s| {
                let le = s.label("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        out
    }
}

fn base_name(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one `name{labels} value` line. Returns `Err` with a message on
/// malformed syntax.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: {line:?}"))?;
            if close < brace {
                return Err(format!("mismatched braces: {line:?}"));
            }
            let labels = parse_labels(&line[brace + 1..close])?;
            let value_part = line[close + 1..].trim();
            return finish_sample(&line[..brace], labels, value_part, line);
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next().unwrap_or("");
            (name, it.next().unwrap_or("").trim())
        }
    };
    finish_sample(name_part, Vec::new(), rest, line)
}

fn finish_sample(
    name: &str,
    labels: Vec<(String, String)>,
    value_part: &str,
    line: &str,
) -> Result<Sample, String> {
    let name = name.trim();
    if !valid_name(name) {
        return Err(format!("invalid metric name in line {line:?}"));
    }
    // Samples may carry an optional timestamp after the value; the
    // registry never emits one, so treat extra tokens as an error.
    let mut parts = value_part.split_whitespace();
    let value_str = parts
        .next()
        .ok_or_else(|| format!("missing value in line {line:?}"))?;
    if parts.next().is_some() {
        return Err(format!("unexpected trailing tokens in line {line:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse()
            .map_err(|_| format!("unparseable value {s:?} in line {line:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parse the `key="value",...` body between braces, honouring `\\`,
/// `\"` and `\n` escapes in values.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        while matches!(chars.peek(), Some(c) if *c != '=') {
            key.push(chars.next().unwrap());
        }
        if chars.next() != Some('=') {
            return Err(format!("label without '=' in {body:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value not quoted in {body:?}"));
        }
        let key = key.trim().to_string();
        if !valid_name(&key) {
            return Err(format!("invalid label key {key:?} in {body:?}"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("unterminated label value in {body:?}")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {body:?}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key, value));
    }
}

/// Parse a full exposition body into a [`Scrape`]. Unknown comment lines
/// (`#` that are not HELP/TYPE) are skipped per the format spec.
pub fn parse_exposition(text: &str) -> Result<Scrape, String> {
    let mut scrape = Scrape::default();
    for line in text.lines() {
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or("TYPE line without metric name")?;
                let kind = it.next().ok_or("TYPE line without type")?;
                scrape.types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        scrape.samples.push(parse_sample(line)?);
    }
    Ok(scrape)
}

/// Validate exposition text the way a scraper would: line syntax, `TYPE`
/// declared before any sample of a family, types from the known set,
/// histograms with cumulative monotone buckets whose `+Inf` count equals
/// `_count`, counters non-negative. Returns the number of sample lines.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let scrape = parse_exposition(text)?;
    if scrape.samples.is_empty() {
        return Err("no samples in exposition".to_string());
    }
    for (name, kind) in &scrape.types {
        if !matches!(
            kind.as_str(),
            "counter" | "gauge" | "histogram" | "summary" | "untyped"
        ) {
            return Err(format!("metric {name}: unknown type {kind:?}"));
        }
    }
    // Every sample must belong to a declared family, declared before it.
    let mut seen_types: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line
            .trim_start_matches('#')
            .trim_start()
            .strip_prefix("TYPE ")
        {
            if line.trim_start().starts_with('#') {
                if let Some(name) = rest.split_whitespace().next() {
                    seen_types.insert(name);
                }
            }
            continue;
        }
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let sample = parse_sample(line.trim_end_matches('\r'))?;
        let base = base_name(&sample.name);
        let family = if seen_types.contains(base) {
            base
        } else if seen_types.contains(sample.name.as_str()) {
            sample.name.as_str()
        } else {
            return Err(format!(
                "sample {} has no preceding # TYPE declaration",
                sample.name
            ));
        };
        let kind = &scrape.types[family];
        if kind == "counter" && sample.value < 0.0 {
            return Err(format!("counter {} has negative value", sample.name));
        }
        if kind == "histogram" && sample.name == family {
            return Err(format!(
                "histogram {family} has a bare sample (expected _bucket/_sum/_count)"
            ));
        }
    }
    // Histogram structural checks per labeled series.
    for (family, kind) in &scrape.types {
        if kind != "histogram" {
            continue;
        }
        let count_name = format!("{family}_count");
        for count_sample in scrape.samples.iter().filter(|s| s.name == count_name) {
            let labels: Vec<(&str, &str)> = count_sample
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let buckets = scrape.histogram_cumulative(family, &labels);
            if buckets.is_empty() {
                return Err(format!("histogram {family}: series without buckets"));
            }
            let (last_bound, last_cum) = *buckets.last().unwrap();
            if last_bound.is_finite() {
                return Err(format!("histogram {family}: missing +Inf bucket"));
            }
            if last_cum != count_sample.value {
                return Err(format!(
                    "histogram {family}: +Inf bucket {} != _count {}",
                    last_cum, count_sample.value
                ));
            }
            let mut prev = -1.0f64;
            for &(_, cum) in &buckets {
                if cum < prev {
                    return Err(format!("histogram {family}: non-monotone buckets"));
                }
                prev = cum;
            }
            if scrape.value(&format!("{family}_sum"), &labels).is_none() {
                return Err(format!("histogram {family}: series without _sum"));
            }
        }
    }
    Ok(scrape.samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn loaded_registry() -> Registry {
        let r = Registry::new();
        let reqs = r.counter_vec("spt_requests_total", "Requests by op.", &["op"]);
        reqs.with(&["eval"]).add(10);
        reqs.with(&["ping"]).add(3);
        r.gauge("spt_active_connections", "Open connections.")
            .set(2);
        let lat = r.histogram_vec("spt_request_latency_us", "Latency.", &["op"]);
        for v in [40u64, 55, 200, 90_000] {
            lat.with(&["eval"]).observe(v);
        }
        r
    }

    #[test]
    fn rendered_exposition_validates_and_roundtrips() {
        let r = loaded_registry();
        let text = r.render();
        let n = validate_exposition(&text).expect("valid exposition");
        assert!(n >= 6, "expected several samples, got {n}");
        let scrape = parse_exposition(&text).unwrap();
        assert_eq!(
            scrape.value("spt_requests_total", &[("op", "eval")]),
            Some(10.0)
        );
        assert_eq!(scrape.sum("spt_requests_total"), 13.0);
        assert_eq!(scrape.get("spt_active_connections").unwrap().value, 2.0);
        assert_eq!(scrape.types["spt_request_latency_us"], "histogram");
        let cum = scrape.histogram_cumulative("spt_request_latency_us", &[("op", "eval")]);
        assert_eq!(cum.last().unwrap().1, 4.0);
        assert!(cum.last().unwrap().0.is_infinite());
        let p50 = crate::quantile_from_cumulative(&cum, 0.5);
        assert!((40.0..=240.0).contains(&p50), "p50={p50}");
    }

    #[test]
    fn label_escapes_roundtrip() {
        let r = Registry::new();
        r.counter_vec("spt_esc_total", "Esc.", &["k"])
            .with(&["a\"b\\c\nd"])
            .inc();
        let text = r.render();
        validate_exposition(&text).unwrap();
        let scrape = parse_exposition(&text).unwrap();
        assert_eq!(
            scrape.value("spt_esc_total", &[("k", "a\"b\\c\nd")]),
            Some(1.0)
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("spt_x_total 1\n").is_err(), "no TYPE");
        assert!(
            validate_exposition("# TYPE spt_x_total counter\nspt_x_total{k=\"v\" 1\n").is_err(),
            "unclosed braces"
        );
        assert!(
            validate_exposition("# TYPE spt_x_total counter\nspt_x_total nope\n").is_err(),
            "bad value"
        );
        assert!(
            validate_exposition("# TYPE spt_x_total counter\nspt_x_total -3\n").is_err(),
            "negative counter"
        );
        assert!(
            validate_exposition("# TYPE spt_x_total bogus\nspt_x_total 1\n").is_err(),
            "unknown type"
        );
    }

    #[test]
    fn validator_rejects_broken_histograms() {
        let missing_inf = "\
# TYPE spt_h histogram
spt_h_bucket{le=\"10\"} 2
spt_h_sum 12
spt_h_count 2
";
        assert!(validate_exposition(missing_inf).is_err());
        let count_mismatch = "\
# TYPE spt_h histogram
spt_h_bucket{le=\"10\"} 2
spt_h_bucket{le=\"+Inf\"} 2
spt_h_sum 12
spt_h_count 3
";
        assert!(validate_exposition(count_mismatch).is_err());
        let non_monotone = "\
# TYPE spt_h histogram
spt_h_bucket{le=\"10\"} 5
spt_h_bucket{le=\"20\"} 3
spt_h_bucket{le=\"+Inf\"} 5
spt_h_sum 12
spt_h_count 5
";
        assert!(validate_exposition(non_monotone).is_err());
        let ok = "\
# TYPE spt_h histogram
spt_h_bucket{le=\"10\"} 2
spt_h_bucket{le=\"+Inf\"} 3
spt_h_sum 40
spt_h_count 3
";
        assert_eq!(validate_exposition(ok), Ok(4));
    }

    #[test]
    fn parser_handles_special_values_and_comments() {
        let text = "\
# random comment
# TYPE spt_g gauge
spt_g{k=\"x\"} +Inf
spt_g{k=\"y\"} 1e3
";
        let scrape = parse_exposition(text).unwrap();
        assert!(scrape.value("spt_g", &[("k", "x")]).unwrap().is_infinite());
        assert_eq!(scrape.value("spt_g", &[("k", "y")]), Some(1000.0));
    }
}
