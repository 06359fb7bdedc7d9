//! KGQAn's configuration and the outcome of one answered question.
//!
//! [`crate::service::QaService`] is the entry point that answers questions:
//! [`QaService::answer`](crate::service::QaService::answer) against a
//! registered KG, [`QaService::answer_on`](crate::service::QaService::answer_on)
//! against a borrowed endpoint.  Both return an [`AnswerOutcome`] inside
//! their response, with the per-stage timings of the Figure 7 experiment.

use kgqan_nlp::{AnswerDataType, Seq2SeqVariant};
use kgqan_rdf::Term;

use crate::affinity::AffinityModel;
use crate::agp::AnnotatedGraphPattern;
use crate::linker::LinkerConfig;
use crate::pipeline::StageTimings;
use crate::understanding::Understanding;

/// KGQAn configuration: the four tuning parameters of §7.1.6 plus the model
/// ablation axes of Table 4 and the filtration toggle of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KgqanConfig {
    /// Linking knobs (max fetched vertices, vertices per node, predicates per
    /// edge).
    pub linker: LinkerConfig,
    /// *Max number of Queries*: how many candidate SPARQL queries may be
    /// generated per question.  Paper default: 40.
    pub max_candidate_queries: usize,
    /// How many of the candidate queries may contribute answers before the
    /// execution manager stops.
    pub max_productive_queries: usize,
    /// Which semantic-affinity model to use (Table 4).
    pub affinity: AffinityModel,
    /// Which Seq2Seq variant the question-understanding model emulates
    /// (Table 4).
    pub seq2seq: Seq2SeqVariant,
    /// Whether post-filtration is applied (Figure 10 ablation).
    pub filtration_enabled: bool,
}

impl Default for KgqanConfig {
    fn default() -> Self {
        KgqanConfig {
            linker: LinkerConfig::default(),
            max_candidate_queries: 40,
            max_productive_queries: 3,
            affinity: AffinityModel::FineGrained,
            seq2seq: Seq2SeqVariant::BartLike,
            filtration_enabled: true,
        }
    }
}

/// Everything KGQAn reports for one answered question.
#[derive(Debug, Clone)]
pub struct AnswerOutcome {
    /// The question as asked.
    pub question: String,
    /// The final (post-filtration) answers.
    pub answers: Vec<Term>,
    /// The Boolean verdict, for yes/no questions.
    pub boolean: Option<bool>,
    /// Answers before filtration (the Figure 10 comparison point).
    pub unfiltered_answers: Vec<Term>,
    /// The understanding of the question (PGP + answer type).
    pub understanding: Understanding,
    /// The annotated graph pattern produced by linking.
    pub agp: AnnotatedGraphPattern,
    /// The SPARQL queries that were executed.
    pub executed_queries: Vec<String>,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl AnswerOutcome {
    /// The predicted answer data type.
    pub fn predicted_data_type(&self) -> AnswerDataType {
        self.understanding.answer_type.data_type
    }

    /// True if the question produced no answer at all.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty() && self.boolean.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{AnswerRequest, QaService};
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Triple};
    use std::sync::OnceLock;
    use std::time::Duration;

    /// A small DBpedia-like knowledge graph covering the test questions.
    fn dbpedia_endpoint() -> InProcessEndpoint {
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let rdf_type = Term::iri(vocab::RDF_TYPE);

        let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
        let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        let chicago = Term::iri("http://dbpedia.org/resource/Chicago");
        let sea = Term::iri("http://dbpedia.org/resource/Baltic_Sea");
        let straits = Term::iri("http://dbpedia.org/resource/Danish_straits");
        let kali = Term::iri("http://dbpedia.org/resource/Kaliningrad");
        let person = Term::iri("http://dbpedia.org/ontology/Person");

        store.insert_all([
            Triple::new(
                obama.clone(),
                label.clone(),
                Term::literal_str("Barack Obama"),
            ),
            Triple::new(
                michelle.clone(),
                label.clone(),
                Term::literal_str("Michelle Obama"),
            ),
            Triple::new(chicago.clone(), label.clone(), Term::literal_str("Chicago")),
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
            Triple::new(
                obama.clone(),
                Term::iri("http://dbpedia.org/ontology/spouse"),
                michelle.clone(),
            ),
            Triple::new(
                obama.clone(),
                Term::iri("http://dbpedia.org/ontology/birthPlace"),
                Term::iri("http://dbpedia.org/resource/Honolulu"),
            ),
            Triple::new(obama.clone(), rdf_type.clone(), person.clone()),
            Triple::new(michelle.clone(), rdf_type.clone(), person.clone()),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/property/outflow"),
                straits.clone(),
            ),
            Triple::new(
                sea.clone(),
                Term::iri("http://dbpedia.org/ontology/nearestCity"),
                kali.clone(),
            ),
            Triple::new(
                sea.clone(),
                rdf_type.clone(),
                Term::iri("http://dbpedia.org/ontology/Sea"),
            ),
            Triple::new(
                kali.clone(),
                rdf_type.clone(),
                Term::iri("http://dbpedia.org/ontology/City"),
            ),
        ]);
        InProcessEndpoint::new("DBpedia", store)
    }

    fn service() -> &'static QaService {
        static SERVICE: OnceLock<QaService> = OnceLock::new();
        SERVICE.get_or_init(|| QaService::builder().build().unwrap())
    }

    fn answer(service: &QaService, question: &str, ep: &InProcessEndpoint) -> AnswerOutcome {
        service
            .answer_on(&AnswerRequest::new(question), ep)
            .unwrap()
            .outcome
    }

    #[test]
    fn answers_single_fact_question() {
        let ep = dbpedia_endpoint();
        let outcome = answer(service(), "Who is the wife of Barack Obama?", &ep);
        assert!(
            outcome
                .answers
                .iter()
                .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")),
            "expected Michelle Obama among answers, got {:?}",
            outcome.answers
        );
        assert!(!outcome.executed_queries.is_empty());
        assert!(outcome.timings.total() > Duration::ZERO);
    }

    #[test]
    fn answers_running_example_with_baltic_sea() {
        let ep = dbpedia_endpoint();
        let outcome = answer(
            service(),
            "Name the sea into which Danish Straits flows and has Kaliningrad as one of the city on the shore",
            &ep,
        );
        assert!(
            outcome
                .answers
                .iter()
                .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Baltic_Sea")),
            "expected Baltic Sea, got {:?}",
            outcome.answers
        );
        assert_eq!(outcome.predicted_data_type(), AnswerDataType::String);
        assert!(outcome.understanding.pgp.num_triples() >= 2);
    }

    #[test]
    fn unknown_entity_produces_empty_but_not_error() {
        let ep = dbpedia_endpoint();
        let outcome = answer(service(), "Who is the wife of Zorblax Qwertyius?", &ep);
        assert!(outcome.answers.is_empty());
        assert!(outcome.is_empty() || outcome.boolean.is_some());
    }

    #[test]
    fn filtration_toggle_affects_answers() {
        let ep = dbpedia_endpoint();
        let no_filter_config = KgqanConfig {
            filtration_enabled: false,
            ..KgqanConfig::default()
        };
        let unfiltered_service = QaService::builder()
            .shared_understanding(service().understanding().clone())
            .config(no_filter_config)
            .build()
            .unwrap();
        let outcome = answer(&unfiltered_service, "Who is the wife of Barack Obama?", &ep);
        // Without filtration every collected answer is returned.
        assert_eq!(outcome.answers, outcome.unfiltered_answers);
        assert!(!unfiltered_service.config().filtration_enabled);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = KgqanConfig::default();
        assert_eq!(c.max_candidate_queries, 40);
        assert_eq!(c.linker.max_fetched_vertices, 400);
        assert_eq!(c.linker.num_vertices, 1);
        assert_eq!(c.linker.num_predicates, 20);
        assert!(c.filtration_enabled);
    }

    #[test]
    fn timings_are_recorded_per_phase() {
        let ep = dbpedia_endpoint();
        let outcome = answer(service(), "Who is the wife of Barack Obama?", &ep);
        let t = outcome.timings;
        assert!(t.total() > Duration::ZERO);
        assert!(t.total() >= t.understand);
        assert!(t.total() >= t.link);
        assert!(t.total() >= t.execute + t.filter);
        assert_eq!(t.total(), t.understand + t.link + t.execute + t.filter);
    }
}
