//! Timing samples, order statistics and the result line.

/// Raw and host-normalised durations of one kind of timed unit, in
/// seconds.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub raw: Vec<f64>,
    pub norm: Vec<f64>,
}

impl Timing {
    /// Records a unit that took `raw` seconds while the host ran
    /// `slowdown` times slower than the reference.
    pub fn push(&mut self, raw: f64, slowdown: f64) {
        self.raw.push(raw);
        self.norm.push(raw / slowdown);
    }

    pub fn len(&self) -> usize {
        self.norm.len()
    }
}

/// Median (mean of the middle two for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// p90 by nearest rank; NaN when empty.
pub fn p90(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((0.9 * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Measured values by metric name; units live in the declared metric
/// lists of `main`.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Sets `name` (normalised) and `raw.name` from a timing's medians,
    /// in `unit` (`s`, `ms` or `us`).
    pub fn timing(&mut self, name: &str, t: &Timing, unit: &str) {
        let k = unit_scale(unit);
        self.set(name, median(&t.norm) * k);
        self.set(&format!("raw.{name}"), median(&t.raw) * k);
    }
}

/// Seconds → `unit`.
pub fn unit_scale(unit: &str) -> f64 {
    match unit {
        "s" => 1.0,
        "ms" => 1e3,
        "us" => 1e6,
        other => panic!("not a time unit: {other}"),
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics named in `names`, in that order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
