//! Criterion benchmark for the full KGQAn pipeline (question in, filtered
//! answers out) — the per-question latency whose breakdown Figure 7 reports.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::{AnswerRequest, QaService, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn end_to_end(c: &mut Criterion) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let endpoint = InProcessEndpoint::new("DBpedia", kg.store.clone());
    let service = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .build()
        .expect("a service with no KGs has nothing to misconfigure");
    let person = &kg.facts.people[3];
    let country = &kg.facts.countries[2];
    let single = AnswerRequest::new(format!("Who is the spouse of {}?", person.name));
    let typed = AnswerRequest::new(format!("Which city is the capital of {}?", country.name));

    let mut group = c.benchmark_group("kgqan_end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("single_fact_question", |b| {
        b.iter(|| service.answer_on(&single, &endpoint).unwrap())
    });
    group.bench_function("fact_with_type_question", |b| {
        b.iter(|| service.answer_on(&typed, &endpoint).unwrap())
    });
    group.finish();
}

criterion_group!(benches, end_to_end);
criterion_main!(area = "e2e"; benches);
