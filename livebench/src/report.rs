//! Metric values, exact percentiles, and the result line.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, requests, set-ups…).
    pub samples: u64,
    /// Why the metric does not apply to this workload, when it does not.
    pub absent: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            absent: None,
        }
    }

    pub fn absent(name: &'static str, unit: &'static str, why: &'static str) -> Metric {
        Metric {
            name,
            value: 0.0,
            unit,
            samples: 0,
            absent: Some(why),
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of nanosecond samples, in µs with
/// nanosecond digits; 0 when empty.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1000.0
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Prints one `metric` line per metric for a reader.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        match m.absent {
            Some(why) => println!("metric {:<36} absent ({why})", m.name),
            None => println!(
                "metric {:<36} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            ),
        }
    }
}

/// The result object the benchmark prints as its last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
