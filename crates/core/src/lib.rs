//! # kgqan
//!
//! A Rust implementation of **KGQAn** — *"A Universal Question-Answering
//! Platform for Knowledge Graphs"* (SIGMOD 2023).  KGQAn translates natural
//! language questions into SPARQL queries against *arbitrary* knowledge
//! graphs, with no per-KG pre-processing, in three phases (Figure 4 of the
//! paper):
//!
//! 1. **Question understanding** ([`understanding`]) — a trained
//!    triple-pattern generator turns the question into a *phrase graph
//!    pattern* ([`pgp`]); a classifier predicts the expected answer data type
//!    and semantic type.
//! 2. **Just-in-time linking** ([`linker`]) — entity linking (Algorithm 1)
//!    and relation linking (Algorithm 2) annotate the PGP with candidate
//!    vertices and predicates fetched from the target endpoint through its
//!    public SPARQL API and built-in text index, scored by a semantic
//!    affinity model ([`affinity`], Equation 1).  The result is an
//!    *annotated graph pattern* ([`agp`]).
//! 3. **Execution & filtration** ([`bgp`], [`execution`], [`filter`]) —
//!    candidate SPARQL queries are generated from the AGP (Algorithm 3),
//!    scored (Equation 2), the top-k executed, and the collected answers
//!    post-filtered by the predicted answer type.
//!
//! The three phases are composed as an explicit staged [`pipeline`]: typed
//! stage traits ([`pipeline::Understand`], [`pipeline::Link`],
//! [`pipeline::Execute`], [`pipeline::Filter`]) with typed artifacts
//! flowing between them, so alternative stage implementations plug into the
//! same [`pipeline::Pipeline`] composer.
//!
//! The one entry point is [`service::QaService`] — one trained instance
//! (models behind `Arc`s) answering concurrently against any number of
//! registered KGs, with per-request config overrides, deadlines, batching
//! on its own worker pool, per-stage traces
//! ([`service::QaService::answer_traced`]) and a cross-request, KG-scoped
//! semantic [`cache`] in front of the registered endpoints:
//!
//! ```
//! use std::sync::Arc;
//! use kgqan::{AnswerRequest, QaService};
//! use kgqan_endpoint::InProcessEndpoint;
//! use kgqan_rdf::{Store, Term, Triple, vocab};
//!
//! // A tiny DBpedia-like graph.
//! let mut store = Store::new();
//! let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
//! let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
//! store.insert(Triple::new(obama.clone(), Term::iri(vocab::RDFS_LABEL),
//!                          Term::literal_str("Barack Obama")));
//! store.insert(Triple::new(michelle.clone(), Term::iri(vocab::RDFS_LABEL),
//!                          Term::literal_str("Michelle Obama")));
//! store.insert(Triple::new(obama, Term::iri("http://dbpedia.org/ontology/spouse"),
//!                          michelle));
//!
//! let service = QaService::builder()
//!     .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", store)))
//!     .build()
//!     .unwrap();
//! let response = service.answer(AnswerRequest::new("Who is the wife of Barack Obama?")).unwrap();
//! assert!(response
//!     .outcome
//!     .answers
//!     .iter()
//!     .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod agp;
pub mod bgp;
pub mod cache;
pub mod error;
pub mod execution;
pub mod filter;
pub mod linker;
pub mod pgp;
pub mod pipeline;
pub mod platform;
pub mod service;
pub mod understanding;

pub use affinity::{AffinityModel, CoarseGrainedAffinity, FineGrainedAffinity, SemanticAffinity};
pub use agp::{AnnotatedGraphPattern, RelevantPredicate, RelevantVertex};
pub use bgp::{BasicGraphPattern, CandidateQuery};
pub use cache::{CacheConfig, CacheReport, CacheStats};
pub use error::KgqanError;
pub use execution::{ExecutionManager, ExecutionOutcome, QueryStat};
pub use filter::FiltrationManager;
pub use linker::{JitLinker, LinkOutcome, LinkerConfig};
pub use pgp::{PgpEdge, PgpNode, PhraseGraphPattern};
pub use pipeline::{
    Execute, Filter, FilteredAnswers, Link, LinkedQuestion, Pipeline, PipelineTrace, StageContext,
    StageTimings, Understand,
};
pub use platform::{AnswerOutcome, KgqanConfig};
// The worker pool moved next to its heaviest user, the morsel-parallel
// query executor in `kgqan-sparql`; re-export it so `kgqan::pool` and the
// `kgqan::{PoolConfig, …, WorkerPool}` paths keep working.
pub use kgqan_sparql::pool;
pub use pool::{PoolConfig, PoolStats, SubmitError, Ticket, WorkerPool};
pub use service::{
    AnswerRequest, AnswerResponse, AnswerSource, Budget, BudgetVerdict, ConfigOverrides, QaService,
    QaServiceBuilder, TracedAnswer,
};
pub use understanding::{QuestionUnderstanding, Understanding};
