//! Tier-1 smoke test: the `examples/quickstart.rs` path must work end to end.
//!
//! Builds the miniature DBpedia fragment around the paper's running example
//! 𝑞_E (Figure 4), wraps it in an [`InProcessEndpoint`], and asserts that a
//! default-configured [`QaService`] produces the gold answer. This is
//! deliberately fast (a 7-triple KG) so it can guard every CI run.

use std::sync::Arc;

use kgqan::{AnswerRequest, QaService};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{vocab, Store, Term, Triple};

fn quickstart_store() -> Store {
    let mut store = Store::new();
    let label = Term::iri(vocab::RDFS_LABEL);
    let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
    let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
    let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
    let yantar = Term::iri("http://dbpedia.org/resource/Yantar,_Kaliningrad");

    store.insert_all([
        Triple::new(sea.clone(), label.clone(), Term::literal_str("Baltic Sea")),
        Triple::new(
            straits.clone(),
            label.clone(),
            Term::literal_str("Danish Straits"),
        ),
        Triple::new(
            kali.clone(),
            label.clone(),
            Term::literal_str("Kaliningrad"),
        ),
        Triple::new(yantar, label, Term::literal_str("Yantar, Kaliningrad")),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/property/outflow"),
            straits,
        ),
        Triple::new(
            sea.clone(),
            Term::iri("http://dbpedia.org/ontology/nearestCity"),
            kali,
        ),
        Triple::new(
            sea,
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://dbpedia.org/ontology/Sea"),
        ),
    ]);
    store
}

/// The quickstart's service: one registered KG, default configuration.
fn quickstart_service(endpoint: &Arc<InProcessEndpoint>) -> QaService {
    QaService::builder()
        .endpoint(Arc::clone(endpoint) as Arc<dyn SparqlEndpoint>)
        .build()
        .expect("one registered KG")
}

#[test]
fn quickstart_running_example_answers_baltic_sea() {
    let endpoint = Arc::new(InProcessEndpoint::new("DBpedia", quickstart_store()));
    let service = quickstart_service(&endpoint);

    let question = "Name the sea into which Danish Straits flows and has \
                    Kaliningrad as one of the city on the shore";
    let outcome = service
        .answer(AnswerRequest::new(question))
        .expect("the running example question must be understood")
        .outcome;

    // The gold answer of the running example.
    assert!(
        outcome
            .answers
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Baltic_Sea")),
        "expected Baltic_Sea among answers, got {:?}",
        outcome.answers
    );

    // The pipeline actually ran all three phases against the endpoint.
    assert!(
        !outcome.executed_queries.is_empty(),
        "no SPARQL was executed"
    );
    assert!(
        endpoint.stats().total_requests > 0,
        "endpoint was never queried"
    );
}

#[test]
fn quickstart_platform_is_reusable_across_questions() {
    let endpoint = Arc::new(InProcessEndpoint::new("DBpedia", quickstart_store()));
    let service = quickstart_service(&endpoint);

    // The service trains once and answers any number of questions; a second
    // question on the same instance must not panic or poison state.
    for question in [
        "Name the sea into which Danish Straits flows and has \
         Kaliningrad as one of the city on the shore",
        "What flows into the Baltic Sea?",
    ] {
        let _ = service.answer(AnswerRequest::new(question));
    }
}
