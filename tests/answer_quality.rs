//! Exact answer-quality pin: KGQAn's Table 3 scores at smoke scale.
//!
//! Runs the same harness as the `table3_answer_quality` binary
//! (`kgqan_bench::harness`) for KGQAn on the five smoke-scale benchmarks and
//! asserts the macro precision, recall and F1 of each exactly.  Any change
//! to understanding, linking, execution or filtration that moves a single
//! answer shows up here, so a refactor that claims "same behaviour" has to
//! keep these numbers.

use kgqan::QuestionUnderstanding;
use kgqan_bench::harness::{build_systems, default_kgqan_config, run_system_on_benchmark};
use kgqan_benchmarks::{BenchmarkSuite, KgFlavor, SuiteScale};

/// `(benchmark, macro precision, macro recall, macro F1)`; every smoke
/// benchmark has 24 questions.
const PINNED: [(&str, f64, f64, f64); 5] = [
    ("QALD-9", 19.0 / 24.0, 19.0 / 24.0, 19.0 / 24.0),
    ("LC-QuAD 1.0", 19.0 / 24.0, 19.0 / 24.0, 19.0 / 24.0),
    ("YAGO-Bench", 17.0 / 24.0, 17.0 / 24.0, 17.0 / 24.0),
    ("DBLP-Bench", 11.0 / 24.0, 11.0 / 24.0, 11.0 / 24.0),
    ("MAG-Bench", 11.0 / 24.0, 11.0 / 24.0, 11.0 / 24.0),
];

#[test]
fn kgqan_smoke_table3_scores_are_pinned() {
    let measured: Vec<(String, f64, f64, f64)> = KgFlavor::ALL
        .into_iter()
        .map(|flavor| {
            let instance = BenchmarkSuite::build_one(flavor, SuiteScale::Smoke);
            let systems = build_systems(
                &instance,
                QuestionUnderstanding::train_default(),
                default_kgqan_config(),
            );
            let (report, _) = run_system_on_benchmark(&systems.kgqan, &instance);
            (
                instance.benchmark.name.clone(),
                report.macro_precision,
                report.macro_recall,
                report.macro_f1,
            )
        })
        .collect();
    let expected: Vec<(String, f64, f64, f64)> = PINNED
        .iter()
        .map(|&(name, p, r, f1)| (name.to_string(), p, r, f1))
        .collect();
    assert_eq!(measured, expected);
}
