//! Sample summaries and the small JSON writer the result line needs.

/// Samples needed beyond a reported percentile: a figure resting on
/// fewer samples than this is noise, so the run fails instead (the run
/// record prints `null`).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 < q < 1) of `xs` by nearest rank, or an error when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(xs: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let beyond = (xs.len() as f64 * (1.0 - q)).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{what}: {} samples leave {beyond} beyond p{}; at least {MIN_TAIL_SAMPLES} are needed",
            xs.len(),
            q * 100.0
        ));
    }
    Ok(quantile(xs, q))
}

/// The `q`-quantile by nearest rank, with no sample-count guard (for
/// per-layer summaries and medians). NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (lower middle for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A JSON object built field by field (numbers, strings, raw JSON).
#[derive(Default, Clone)]
pub struct JsonObj {
    fields: Vec<String>,
}

impl JsonObj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num(mut self, key: &str, v: f64) -> Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.fields.push(format!("{}:{v}", quote(key)));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.fields.push(format!("{}:{v}", quote(key)));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields.push(format!("{}:{}", quote(key), quote(v)));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.fields.push(format!("{}:{json}", quote(key)));
        self
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    gvdb_api::escape_into(s, &mut out);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&xs, 0.99, "x").is_err());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99, "x").unwrap(), 990.0);
        assert_eq!(median(&xs), 500.0);
    }
}
