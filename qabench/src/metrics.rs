//! The metric catalogue (the names `BENCHMARK.json` declares) and the
//! result every run ends with.

use std::collections::BTreeMap;

use crate::json::write_str;

/// End-to-end metrics: `(name, unit, better)`.  Every run with `--trace 0`
/// reports all of them.  `p90_ms` times the workload's main operation and
/// `side_p90_ms` its second one (see the workload table in
/// `qabench/README.md`).  Medians and p99s are printed in the report but
/// not gated: on a noisy machine they moved the most from run to run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("throughput_ops", "ops/s", "higher"),
    ("p90_ms", "ms", "lower"),
    ("side_p90_ms", "ms", "lower"),
    ("answer_f1", "F1", "higher"),
];

/// Per-layer metrics: `(name, unit, better)`.  Every run with `--trace 1`
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("server.overhead_ms.p50", "ms", "lower"),
    ("server.overhead_ms.p95", "ms", "lower"),
    ("server.pre_ms.p50", "ms", "lower"),
    ("server.post_ms.p50", "ms", "lower"),
    ("server.body_kb.mean", "KiB", "lower"),
    ("server.shed", "count", "lower"),
    ("server.refused", "count", "lower"),
    ("service.queue_depth.max", "count", "lower"),
    ("service.pool_rejected", "count", "lower"),
    ("understand_ms.p50", "ms", "lower"),
    ("understand_ms.p95", "ms", "lower"),
    ("link_ms.p50", "ms", "lower"),
    ("link_ms.p95", "ms", "lower"),
    ("link.self_ms.p50", "ms", "lower"),
    ("link.candidates.mean", "count", "lower"),
    ("execute_ms.p50", "ms", "lower"),
    ("execute_ms.p95", "ms", "lower"),
    ("execute.queries.mean", "count", "lower"),
    ("filter_ms.p50", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.scoped_evictions", "count", "lower"),
    ("engine.calls.per_ask", "count", "lower"),
    ("engine.probe_ms.p50", "ms", "lower"),
    ("engine.candidate_ms.p50", "ms", "lower"),
    ("engine.read_ms.p50.point", "ms", "lower"),
    ("engine.read_ms.p50.twohop", "ms", "lower"),
    ("engine.read_ms.p50.paged", "ms", "lower"),
    ("engine.read_ms.p50.mutual", "ms", "lower"),
    ("sparql.rows_scanned.point", "count", "lower"),
    ("sparql.rows_scanned.twohop", "count", "lower"),
    ("sparql.rows_scanned.paged", "count", "lower"),
    ("sparql.rows_scanned.mutual", "count", "lower"),
    ("sparql.rows_emitted.point", "count", "lower"),
    ("sparql.rows_emitted.twohop", "count", "lower"),
    ("sparql.rows_emitted.paged", "count", "lower"),
    ("sparql.rows_emitted.mutual", "count", "lower"),
    ("sparql.parallel_share.point", "ratio", "higher"),
    ("sparql.parallel_share.twohop", "ratio", "higher"),
    ("sparql.parallel_share.paged", "ratio", "higher"),
    ("sparql.parallel_share.mutual", "ratio", "higher"),
    ("sparql.dop.mean.point", "count", "higher"),
    ("sparql.dop.mean.twohop", "count", "higher"),
    ("sparql.dop.mean.paged", "count", "higher"),
    ("sparql.dop.mean.mutual", "count", "higher"),
    ("rdf.ingest_ms.p50", "ms", "lower"),
    ("rdf.ingest_ms.p95", "ms", "lower"),
    ("rdf.epochs", "count", "higher"),
    ("rdf.triples_added", "count", "higher"),
    ("federate.legs.mean", "count", "lower"),
    ("federate.leg_ms.p50", "ms", "lower"),
    ("federate.fanout_ms.p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.reconcile_gap_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, unit, _)| unit)
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, to be filled in by a workload.
pub fn zero_layers() -> Values {
    PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect()
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations sent (warm-up and timed), every one checked.
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport error, partial answer,
    /// or a failed correctness check.
    pub failed: u64,
    /// Descriptions of the first failures, for the log.
    pub failures: Vec<String>,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Values,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check<T>(&mut self, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why.clone());
        }
    }

    /// Count a failure found outside a single reply (a post-run check).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// True when every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code for this outcome: non-zero on any mismatch.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            // JSON has no infinity: a percentile that falls on failed
            // requests is printed as a huge finite latency.
            let value = if value.is_finite() { *value } else { 1e12 };
            out.push_str(&format!(":{{\"value\":{value:?},\"unit\":"));
            write_str(&mut out, unit_of(name));
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared(kind: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).unwrap();
        doc.get(kind)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn an_oracle_mismatch_fails_the_run() {
        let mut outcome = Outcome::default();
        outcome.check(&Ok::<(), String>(()));
        assert!(outcome.correct());
        assert_eq!(outcome.exit_code(), 0);
        outcome.check(&Err::<(), String>("answer differs from the oracle".into()));
        assert!(!outcome.correct());
        assert_eq!(outcome.exit_code(), 1);
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        let line = Json::parse(&outcome.result_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn result_line_carries_units_and_full_precision() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metrics.insert("p90_ms", 1.234_567_891_234);
        outcome.metrics.insert("side_p90_ms", f64::INFINITY);
        let line = Json::parse(&outcome.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        let p90 = metrics.get("p90_ms").unwrap();
        assert_eq!(
            p90.get("value").and_then(Json::as_f64),
            Some(1.234_567_891_234)
        );
        assert_eq!(p90.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(
            metrics
                .get("side_p90_ms")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(1e12)
        );
    }
}
