//! End-to-end integration test: the full KGQAn pipeline against a generated
//! DBpedia-like knowledge graph, across the question categories of the
//! paper's taxonomy.

use std::sync::OnceLock;

use kgqan::{AnswerOutcome, AnswerRequest, QaService, QuestionUnderstanding};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;
use kgqan_nlp::AnswerDataType;

fn service() -> &'static QaService {
    static SERVICE: OnceLock<QaService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        QaService::builder()
            .understanding(QuestionUnderstanding::train_default())
            .build()
            .expect("a service with no KGs has nothing to misconfigure")
    })
}

/// Answer `question` against the borrowed generated endpoint.
fn answer(question: &str, endpoint: &InProcessEndpoint) -> AnswerOutcome {
    service()
        .answer_on(&AnswerRequest::new(question), endpoint)
        .unwrap()
        .outcome
}

fn dbpedia() -> &'static (GeneratedKg, InProcessEndpoint) {
    static KG: OnceLock<(GeneratedKg, InProcessEndpoint)> = OnceLock::new();
    KG.get_or_init(|| {
        let kg = GeneratedKg::generate(KgFlavor::Dbpedia10, KgScale::tiny());
        let ep = InProcessEndpoint::new("DBpedia", kg.store.clone());
        (kg, ep)
    })
}

#[test]
fn single_fact_question_returns_gold_spouse() {
    let (kg, ep) = dbpedia();
    let person = kg.facts.people.iter().find(|p| p.spouse.is_some()).unwrap();
    let spouse = &kg.facts.people[person.spouse.unwrap()];
    let outcome = answer(&format!("Who is the wife of {}?", person.name), ep);
    assert!(
        outcome.answers.contains(&spouse.iri),
        "expected {} among {:?}",
        spouse.iri,
        outcome.answers
    );
    assert_eq!(outcome.predicted_data_type(), AnswerDataType::String);
}

#[test]
fn fact_with_type_question_returns_capital_city() {
    let (kg, ep) = dbpedia();
    let country = &kg.facts.countries[4];
    let capital = &kg.facts.cities[country.capital];
    let outcome = answer(
        &format!("Which city is the capital of {}?", country.name),
        ep,
    );
    assert!(
        outcome.answers.contains(&capital.iri),
        "expected {} among {:?}",
        capital.iri,
        outcome.answers
    );
}

#[test]
fn multi_fact_question_constrains_the_unknown_with_both_facts() {
    let (kg, ep) = dbpedia();
    let sea = &kg.facts.waters[0];
    let straits = &kg.facts.waters[sea.outflow_of.unwrap()];
    let city = &kg.facts.cities[sea.nearest_city];
    let question = format!(
        "Name the sea into which {} flows and has {} as one of the city on the shore",
        straits.name, city.name
    );
    let outcome = answer(&question, ep);
    assert!(
        outcome.answers.contains(&sea.iri),
        "expected {} among {:?}",
        sea.iri,
        outcome.answers
    );
    assert!(outcome.understanding.pgp.num_triples() >= 2);
}

#[test]
fn date_question_returns_a_date_literal() {
    let (kg, ep) = dbpedia();
    let person = &kg.facts.people[10];
    let outcome = answer(&format!("When was {} born?", person.name), ep);
    assert_eq!(outcome.predicted_data_type(), AnswerDataType::Date);
    assert!(
        outcome
            .answers
            .iter()
            .any(|t| t.as_literal().map(|l| l.is_date()).unwrap_or(false)),
        "expected a date literal among {:?}",
        outcome.answers
    );
}

#[test]
fn boolean_question_gets_correct_verdicts_in_both_directions() {
    let (kg, ep) = dbpedia();
    let country = &kg.facts.countries[2];
    let capital = &kg.facts.cities[country.capital];
    let not_capital = &kg.facts.cities[(country.capital + 5) % kg.facts.cities.len()];

    let yes = answer(
        &format!("Is {} the capital of {}?", capital.name, country.name),
        ep,
    );
    assert_eq!(
        yes.boolean,
        Some(true),
        "expected yes for the true statement"
    );

    let no = answer(
        &format!("Is {} the capital of {}?", not_capital.name, country.name),
        ep,
    );
    assert_eq!(
        no.boolean,
        Some(false),
        "expected no for the false statement"
    );
}

#[test]
fn pipeline_reports_all_three_phase_timings_and_queries() {
    let (kg, ep) = dbpedia();
    let person = &kg.facts.people[1];
    let outcome = answer(&format!("Where was {} born?", person.name), ep);
    assert!(!outcome.executed_queries.is_empty());
    let t = outcome.timings;
    assert!(t.total() >= t.link);
    assert_eq!(t.total(), t.understand + t.link + t.execute + t.filter);
    // The executed SPARQL carries the OPTIONAL rdf:type clause used by the
    // post-filter (Figure 6).
    assert!(outcome.executed_queries[0].contains("OPTIONAL"));
}

#[test]
fn nonsense_entity_yields_empty_answer_not_error() {
    let (_, ep) = dbpedia();
    let outcome = answer("Who is the wife of Xyzzyplugh Frobozz?", ep);
    assert!(outcome.answers.is_empty());
}
