//! The run record: what a result was measured on and with which inputs,
//! printed as one `record:` line and saved under `qabench/out/`.

use std::path::PathBuf;

use crate::json::write_str;
use crate::metrics::Outcome;
use crate::setup::{cpu_model, git_rev, nproc};

/// Ordered `key → JSON value` pairs, plus the run they describe.
#[derive(Debug, Clone)]
pub struct RunRecord {
    workload: String,
    seed: u64,
    trace: bool,
    fields: Vec<(String, String)>,
}

/// A JSON number; JSON has no infinity, so a percentile that fell on a
/// failed request is written as a huge finite latency.
fn number(value: f64) -> String {
    let value = if value.is_finite() { value } else { 1e12 };
    format!("{value:?}")
}

fn object(fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, key);
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

impl RunRecord {
    /// A record stamped with the machine, the commit and the run's
    /// arguments.
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let mut record = RunRecord {
            workload: workload.to_string(),
            seed,
            trace,
            fields: Vec::new(),
        };
        record.text("workload", workload);
        record.num("seed", seed as f64);
        record.num("seconds", seconds as f64);
        record.raw("trace", trace.to_string());
        record.num("nproc", nproc() as f64);
        record.text("cpu", &cpu_model());
        record.text("git_rev", &git_rev());
        record
    }

    /// A number field.
    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, number(value));
    }

    /// A string field.
    pub fn text(&mut self, key: &str, value: &str) {
        let mut out = String::new();
        write_str(&mut out, value);
        self.raw(key, out);
    }

    /// A field holding already-serialized JSON.
    pub fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    /// A nested object of number fields.
    pub fn nums<'a>(&mut self, key: &str, values: impl IntoIterator<Item = (&'a str, f64)>) {
        let nested: Vec<(String, String)> = values
            .into_iter()
            .map(|(k, v)| (k.to_string(), number(v)))
            .collect();
        self.raw(key, object(&nested));
    }

    /// Where this run's `what` artifact goes, relative to the checkout
    /// root.
    pub fn out_path(&self, what: &str) -> PathBuf {
        PathBuf::from("qabench/out").join(format!(
            "{}-seed{}-trace{}.{what}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ))
    }

    /// Add the outcome, print the `record:` line and save the record; a
    /// failure to write is reported, not fatal.
    pub fn finish(mut self, outcome: &Outcome) {
        self.nums(
            "outcome",
            [
                ("attempted", outcome.attempted as f64),
                ("failed", outcome.failed as f64),
            ],
        );
        let json = object(&self.fields);
        println!("record: {json}");
        let path = self.out_path("record.json");
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json + "\n"));
        if let Err(e) = written {
            eprintln!("qabench: cannot write {}: {e}", path.display());
        }
    }
}
