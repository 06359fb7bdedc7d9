//! Criterion benchmark for the serving layer: one `QaService` answering a
//! small mixed workload sequentially vs. fanned out through `answer_batch`,
//! the single-vs-batched throughput comparison for the ROADMAP's
//! heavy-traffic north star.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kgqan::{AnswerRequest, QaService, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn service_workload(latency: Duration) -> (QaService, Vec<AnswerRequest>) {
    let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
    let endpoint = InProcessEndpoint::new("DBpedia", kg.store.clone()).with_latency(latency);
    // The semantic cache is disabled here on purpose: this bench measures
    // how batching overlaps *endpoint round-trips*, and a warm cache would
    // absorb them all after the first iteration (the cache's own effect is
    // measured by the `kgqan_cache` bench).
    let service = QaService::builder()
        .understanding(QuestionUnderstanding::train_default())
        .endpoint(Arc::new(endpoint))
        .no_cache()
        .build()
        .expect("single registered KG");

    let requests: Vec<AnswerRequest> = (0..4)
        .flat_map(|i| {
            let person = &kg.facts.people[i];
            let country = &kg.facts.countries[i];
            [
                AnswerRequest::new(format!("Who is the spouse of {}?", person.name)),
                AnswerRequest::new(format!("Which city is the capital of {}?", country.name)),
            ]
        })
        .collect();
    (service, requests)
}

fn qa_service(c: &mut Criterion) {
    let (service, requests) = service_workload(Duration::ZERO);
    // A "remote" KG: every endpoint round-trip pays an injected latency, so
    // batching hides round-trips behind each other instead of serialising
    // them (this is where `answer_batch` earns its worker pool; on an
    // in-memory KG the per-request work is too small to amortise the
    // hand-off to the workers).
    let (slow_service, slow_requests) = service_workload(Duration::from_micros(500));

    let mut group = c.benchmark_group("kgqan_service");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("sequential_answers", |b| {
        b.iter(|| {
            for request in &requests {
                criterion::black_box(service.answer(request.clone()).unwrap());
            }
        })
    });
    group.bench_function("answer_batch", |b| {
        b.iter(|| criterion::black_box(service.answer_batch(&requests)))
    });
    group.bench_function("sequential_answers_slow_kg", |b| {
        b.iter(|| {
            for request in &slow_requests {
                criterion::black_box(slow_service.answer(request.clone()).unwrap());
            }
        })
    });
    group.bench_function("answer_batch_slow_kg", |b| {
        b.iter(|| criterion::black_box(slow_service.answer_batch(&slow_requests)))
    });
    group.finish();
}

criterion_group!(benches, qa_service);
criterion_main!(area = "service"; benches);
