//! The concurrent, multi-KG serving layer.
//!
//! [`QaService`] is the platform API the paper's universality claim calls
//! for: **one** trained KGQAn instance (question understanding + affinity
//! models, trained once, held in `Arc`s) serving questions against *any*
//! number of registered SPARQL endpoints, from any number of threads.
//!
//! * The service is built on the staged [`Pipeline`](crate::pipeline): four
//!   typed stages (understand → link → execute → filter) composed behind
//!   `Arc`s.  [`QaServiceBuilder::pipeline`] swaps in alternative stage
//!   implementations; [`QaService::answer_traced`] surfaces every stage's
//!   artifact, per-stage timings, and cache statistics.
//! * Requests are [`AnswerRequest`]s: a question, an optional target KG name
//!   (resolved through the service's [`EndpointRegistry`]), per-request
//!   [`ConfigOverrides`], and an optional deadline.
//! * Responses are [`AnswerResponse`]s: the classic [`AnswerOutcome`] plus a
//!   request id, the KG that answered, per-candidate-query statistics, an
//!   endpoint stats snapshot, and a [`BudgetVerdict`] saying whether the
//!   deadline cut the pipeline short.
//! * Registered KGs are served through a cross-request **semantic cache**
//!   ([`crate::cache`]): each KG gets its own bounded namespace of linking
//!   probes and parsed-query results, shared by concurrent and batched
//!   requests, so repeated and overlapping questions skip endpoint
//!   round-trips.  [`QaServiceBuilder::cache`] tunes the capacities;
//!   [`QaServiceBuilder::no_cache`] disables the layer.
//! * Deadlines degrade gracefully: an expired [`Budget`] stops linking
//!   probes and candidate-query execution at the next check-point and the
//!   response carries the best answers collected so far, flagged
//!   [`BudgetVerdict::Partial`] — a slow KG bounds a request's latency
//!   instead of running unbounded.
//! * Every service owns a persistent, bounded [`WorkerPool`]:
//!   [`QaService::answer_batch`] fans a slice of requests across it,
//!   [`QaService::try_enqueue`] queues single requests with non-blocking
//!   back-pressure, and [`QaService::queue_depth`] reports the backlog an
//!   admission layer sheds against.  The service itself is cheaply
//!   cloneable (`Arc` inside) and `Send + Sync`, so callers can equally well
//!   clone it into their own threads.
//!
//! [`QaService::answer`] serves registered KGs; [`QaService::answer_on`]
//! answers against a borrowed endpoint that was never registered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgqan_endpoint::{EndpointRegistry, RequestStats, SparqlEndpoint};

use crate::affinity::SemanticAffinity;
use crate::cache::{CacheConfig, CacheReport, CacheStats};
use crate::error::KgqanError;
use crate::linker::LinkerConfig;
use crate::pipeline::{Pipeline, PipelineTrace, StageContext};
use crate::platform::{AnswerOutcome, KgqanConfig};
use crate::pool::{PoolConfig, PoolStats, SubmitError, Ticket, WorkerPool};
use crate::understanding::QuestionUnderstanding;

pub use crate::execution::QueryStat;

/// A request's time budget: a start instant plus an optional deadline.
///
/// The budget is threaded through the linking and execution phases, which
/// check it between endpoint round-trips; `Budget::unbounded()` never
/// expires and compiles down to the pre-deadline behaviour.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    deadline: Option<Duration>,
}

impl Budget {
    /// A budget that never expires.
    pub fn unbounded() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
        }
    }

    /// A budget expiring `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        Budget {
            started: Instant::now(),
            deadline: Some(deadline),
        }
    }

    /// Start a budget from an optional deadline.
    pub fn start(deadline: Option<Duration>) -> Self {
        Budget {
            started: Instant::now(),
            deadline,
        }
    }

    /// The deadline this budget enforces, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Time elapsed since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time left before the deadline (`None` for unbounded budgets, zero
    /// once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(self.elapsed()))
    }

    /// True once the deadline has passed.  Unbounded budgets never expire.
    pub fn expired(&self) -> bool {
        match self.deadline {
            Some(deadline) => self.elapsed() >= deadline,
            None => false,
        }
    }

    /// The smallest per-branch share [`Budget::split`] hands out: below
    /// this a sub-request cannot even complete its linking probes, so the
    /// share would buy nothing but a guaranteed `Partial`.
    pub const MIN_SPLIT_SHARE: Duration = Duration::from_millis(25);

    /// Carve a per-branch budget for fanning this request out `n` ways.
    ///
    /// Each share is an *independent* budget of `remaining / n`, floored at
    /// [`Budget::MIN_SPLIT_SHARE`] (but never beyond what actually remains),
    /// starting from now.  Fan-out paths — `answer_batch_within`, the
    /// federation layer — give every branch its own share instead of the
    /// whole deadline, so one stalled KG exhausts only its slice while its
    /// siblings still finish within theirs.  Splitting an unbounded budget
    /// yields unbounded shares; splitting an expired budget yields shares
    /// that are born expired.
    pub fn split(&self, n: usize) -> Budget {
        let n = n.max(1) as u32;
        match self.remaining() {
            None => Budget::unbounded(),
            Some(remaining) => {
                let share = (remaining / n).max(Self::MIN_SPLIT_SHARE).min(remaining);
                Budget::with_deadline(share)
            }
        }
    }
}

/// Whether a request completed within its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// Every phase ran to completion (the deadline, if any, was met).
    Completed,
    /// The deadline expired mid-pipeline; the response carries the best
    /// results collected so far (linking annotations, answers) and skipped
    /// whatever work remained.
    Partial,
}

impl BudgetVerdict {
    /// True if the deadline cut the pipeline short.
    pub fn is_partial(&self) -> bool {
        matches!(self, BudgetVerdict::Partial)
    }
}

/// Per-request overrides of the service-wide [`KgqanConfig`].
///
/// Only the *runtime* knobs can vary per request; the model axes
/// (`seq2seq`, `affinity`) are fixed when the service is built, because they
/// select which trained models the service holds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigOverrides {
    /// Override the linker knobs (max fetched vertices, vertices per node,
    /// predicates per edge).
    pub linker: Option<LinkerConfig>,
    /// Override *Max number of Queries*.
    pub max_candidate_queries: Option<usize>,
    /// Override the productive-query budget of the execution manager.
    pub max_productive_queries: Option<usize>,
    /// Override the post-filtration toggle.
    pub filtration_enabled: Option<bool>,
}

impl ConfigOverrides {
    /// No overrides: the request runs with the service configuration.
    pub fn none() -> Self {
        Self::default()
    }

    /// Resolve the effective configuration for a request.
    pub fn apply(&self, base: &KgqanConfig) -> KgqanConfig {
        KgqanConfig {
            linker: self.linker.unwrap_or(base.linker),
            max_candidate_queries: self
                .max_candidate_queries
                .unwrap_or(base.max_candidate_queries),
            max_productive_queries: self
                .max_productive_queries
                .unwrap_or(base.max_productive_queries),
            filtration_enabled: self.filtration_enabled.unwrap_or(base.filtration_enabled),
            ..*base
        }
    }
}

/// One question for the service to answer.
#[derive(Debug, Clone, Default)]
pub struct AnswerRequest {
    /// The natural-language question.
    pub question: String,
    /// The registered KG to answer from.  `None` targets the service's
    /// default KG (explicitly configured, or the sole registered endpoint).
    pub kg: Option<String>,
    /// Per-request configuration overrides.
    pub overrides: ConfigOverrides,
    /// How long the request may run.  When the deadline expires the
    /// pipeline returns best-so-far results flagged partial instead of
    /// continuing unbounded.
    pub deadline: Option<Duration>,
    /// Client-supplied request id echoed in the response; the service
    /// assigns a sequential `req-N` id when absent.
    pub id: Option<String>,
}

impl AnswerRequest {
    /// A request against the service's default KG with no overrides.
    pub fn new(question: impl Into<String>) -> Self {
        AnswerRequest {
            question: question.into(),
            ..Default::default()
        }
    }

    /// Target a registered KG by name.
    pub fn on_kg(mut self, kg: impl Into<String>) -> Self {
        self.kg = Some(kg.into());
        self
    }

    /// Bound the request's wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach per-request configuration overrides.
    pub fn with_overrides(mut self, overrides: ConfigOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Attach a client-supplied request id.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }
}

/// Provenance of an answer set: which KG contributed, the epoch it served,
/// how long it took, and how much plan work its engine reported.
///
/// Single-KG responses carry exactly one source; the federation layer
/// merges answers from several KGs and attaches one entry per KG that
/// contributed to the merged set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSource {
    /// The registered KG name.
    pub kg: String,
    /// The epoch the KG was serving, when its endpoint exposes one.
    pub epoch: Option<u64>,
    /// Wall-clock time this KG's pipeline run took.
    pub elapsed: Duration,
    /// Total index/text rows the KG's engine scanned across the executed
    /// candidate queries (0 when the endpoint exposes no metrics).
    pub plan_rows: u64,
}

/// Everything the service reports for one answered request.
#[derive(Debug, Clone)]
pub struct AnswerResponse {
    /// The request id (client-supplied or service-assigned).
    pub request_id: String,
    /// The name of the KG that answered.
    pub kg: String,
    /// The classic pipeline outcome: answers, understanding, AGP, timings.
    pub outcome: AnswerOutcome,
    /// Per-candidate-query execution statistics, in execution order.
    pub query_stats: Vec<QueryStat>,
    /// Cumulative request statistics of the answering endpoint, snapshotted
    /// when this request finished (cumulative across all requests the
    /// endpoint has served, not just this one).  For registered KGs this
    /// includes the semantic-cache hit/miss counters.
    pub endpoint_stats: RequestStats,
    /// Whether the deadline cut the pipeline short.
    pub verdict: BudgetVerdict,
    /// Wall-clock time the request spent in the pipeline.
    pub elapsed: Duration,
    /// Provenance: the KG(s) whose evidence produced `outcome.answers` —
    /// one entry on the single-KG paths, one per contributing KG on
    /// federated responses.
    pub sources: Vec<AnswerSource>,
    /// Ranking score per answer, parallel to `outcome.answers`: the best
    /// Equation-2 query score that produced the term on single-KG paths,
    /// the agreement-boosted combined score on federated responses.
    pub answer_scores: Vec<f64>,
}

impl AnswerResponse {
    /// True if the deadline expired before the pipeline completed.
    pub fn is_partial(&self) -> bool {
        self.verdict.is_partial()
    }
}

/// An [`AnswerResponse`] plus the full per-stage pipeline trace and the
/// request's semantic-cache activity, returned by
/// [`QaService::answer_traced`].
#[derive(Debug, Clone)]
pub struct TracedAnswer {
    /// The regular response.
    pub response: AnswerResponse,
    /// Every stage's artifact and wall-clock timing.
    pub trace: PipelineTrace,
    /// Change of the target KG's cache namespace counters over this
    /// request (all-zero on an uncached service).  Under concurrent load
    /// the delta is namespace-wide, so simultaneous requests to the same
    /// KG may fold into each other's deltas.
    pub cache: CacheStats,
}

struct ServiceInner {
    understanding: Arc<QuestionUnderstanding>,
    pipeline: Pipeline,
    config: KgqanConfig,
    registry: EndpointRegistry,
    default_kg: Option<String>,
    next_request_id: AtomicU64,
    /// The persistent bounded worker pool.  Dropping the service's last
    /// clone shuts it down cleanly (accepted jobs drain, threads join).
    pool: WorkerPool,
}

/// A concurrent, multi-KG question-answering service.
///
/// Cloning is cheap (an `Arc` bump) and every clone shares the same trained
/// models, configuration, endpoint registry and cache namespaces, so one
/// service can be handed to any number of threads.  See the
/// [module docs](self) for the request / response model.
#[derive(Clone)]
pub struct QaService {
    inner: Arc<ServiceInner>,
}

impl QaService {
    /// Start building a service.
    pub fn builder() -> QaServiceBuilder {
        QaServiceBuilder::new()
    }

    /// The service-wide configuration (requests may override parts of it).
    pub fn config(&self) -> &KgqanConfig {
        &self.inner.config
    }

    /// The registry of KGs this service can answer from.
    pub fn registry(&self) -> &EndpointRegistry {
        &self.inner.registry
    }

    /// Names of the registered KGs, sorted.
    pub fn kg_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// The shared trained question-understanding component.
    pub fn understanding(&self) -> &Arc<QuestionUnderstanding> {
        &self.inner.understanding
    }

    /// The staged pipeline the service runs requests through.
    pub fn pipeline(&self) -> &Pipeline {
        &self.inner.pipeline
    }

    /// Per-KG semantic-cache statistics (empty when the cache layer is
    /// disabled).
    pub fn cache_report(&self) -> CacheReport {
        CacheReport::new(self.inner.registry.cache_stats())
    }

    /// Flush the cache namespace of one registered KG.  Returns true if the
    /// KG exists and is cached.
    pub fn invalidate_cache(&self, kg: &str) -> bool {
        self.inner.registry.invalidate_cache(kg)
    }

    /// The service's persistent worker pool.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Requests waiting in the worker-pool queue right now.  This is the
    /// *real* backlog an admission layer compares against its
    /// load-shedding threshold.
    pub fn queue_depth(&self) -> usize {
        self.inner.pool.queue_depth()
    }

    /// A snapshot of the worker pool's counters.  Always `Some`: the
    /// `Option` survives only because the `qabench` harness reads it that
    /// way; [`QaService::worker_pool`] gives the stats directly.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.inner.pool.stats())
    }

    /// Enqueue one request onto the persistent worker pool without
    /// blocking.  The returned [`Ticket`] resolves to the same
    /// `Result<AnswerResponse, KgqanError>` that [`QaService::answer`]
    /// would produce.
    ///
    /// Fails with [`SubmitError::QueueFull`] when the bounded queue is at
    /// capacity (the caller should shed load) and
    /// [`SubmitError::ShuttingDown`] once [`QaService::shutdown`] has begun.
    pub fn try_enqueue(
        &self,
        request: AnswerRequest,
    ) -> Result<Ticket<Result<AnswerResponse, KgqanError>>, SubmitError> {
        let service = self.clone();
        self.inner.pool.try_submit(move || service.answer(request))
    }

    /// Gracefully shut the worker pool down: stop accepting queued work,
    /// run every request already accepted to completion, and join the
    /// worker threads.  Direct [`QaService::answer`] calls keep working
    /// after shutdown, and [`QaService::answer_batch`] then answers on the
    /// caller's thread.
    pub fn shutdown(&self) {
        self.inner.pool.shutdown();
    }

    /// Ingest a batch of new triples into one registered KG's live store.
    ///
    /// The batch is applied atomically by the KG's writer and published as a
    /// new epoch snapshot; requests already in flight keep the epoch they
    /// pinned, requests arriving after this call returns see the new data.
    /// On a cached service the KG's namespace is *scope*-invalidated: only
    /// cached probes and candidate results the added triples could have
    /// changed are evicted, everything else stays warm.  Fails with
    /// [`KgqanError`] wrapping [`kgqan_endpoint::EndpointError`] when the KG
    /// is unknown or its endpoint is read-only.
    pub fn ingest(
        &self,
        kg: &str,
        batch: kgqan_rdf::IngestBatch,
    ) -> Result<kgqan_rdf::IngestReport, KgqanError> {
        Ok(self.inner.registry.ingest(kg, batch)?)
    }

    /// Resolve which registered KG a request targets: the request's explicit
    /// choice, else the configured default, else the sole registered
    /// endpoint.
    fn resolve_kg(&self, request: &AnswerRequest) -> Result<String, KgqanError> {
        if let Some(kg) = &request.kg {
            return Ok(kg.clone());
        }
        if let Some(default) = &self.inner.default_kg {
            return Ok(default.clone());
        }
        let names = self.inner.registry.names();
        match names.as_slice() {
            [only] => Ok(only.clone()),
            [] => Err(KgqanError::Configuration(
                "request names no KG and the service has no registered endpoints".into(),
            )),
            _ => Err(KgqanError::Configuration(format!(
                "request names no KG and the service has no default (registered: {})",
                names.join(", ")
            ))),
        }
    }

    /// Answer one request against its registered target KG.
    pub fn answer(&self, request: AnswerRequest) -> Result<AnswerResponse, KgqanError> {
        let kg = self.resolve_kg(&request)?;
        let endpoint = self.inner.registry.get(&kg)?;
        let run = self.run_request(&request, endpoint.as_ref())?;
        Ok(run.into_response(&request.question, &kg))
    }

    /// Answer one request and return the full per-stage trace alongside the
    /// response: every stage artifact (understanding, linked candidates,
    /// execution outcome, filtered answers), per-stage timings, and the
    /// request's semantic-cache counter delta.
    pub fn answer_traced(&self, request: AnswerRequest) -> Result<TracedAnswer, KgqanError> {
        let kg = self.resolve_kg(&request)?;
        let endpoint = self.inner.registry.get(&kg)?;
        let namespace = self.inner.registry.cache_of(&kg);
        let cache_before = namespace.as_ref().map(|ns| ns.stats()).unwrap_or_default();
        let run = self.run_request(&request, endpoint.as_ref())?;
        let cache_after = namespace.as_ref().map(|ns| ns.stats()).unwrap_or_default();
        // The trace survives only on this diagnostic path; the hot
        // `answer`/`answer_on` paths move the artifacts straight into the
        // response instead of cloning them.
        let trace = run.trace.clone();
        Ok(TracedAnswer {
            response: run.into_response(&request.question, &kg),
            trace,
            cache: cache_after.since(&cache_before),
        })
    }

    /// Answer a request against a borrowed endpoint, bypassing the registry
    /// (and therefore the per-KG cache namespaces).
    ///
    /// This serves one-off endpoints that were never registered, such as a
    /// store built for a single experiment; the response's `kg` field
    /// carries the endpoint's own name.
    pub fn answer_on(
        &self,
        request: &AnswerRequest,
        endpoint: &dyn SparqlEndpoint,
    ) -> Result<AnswerResponse, KgqanError> {
        let run = self.run_request(request, endpoint)?;
        Ok(run.into_response(&request.question, endpoint.name()))
    }

    /// Answer a batch of requests concurrently on the service's worker
    /// pool.
    ///
    /// Responses come back in request order.  Each request is enqueued if
    /// the pool's bounded queue has room and otherwise answered on the
    /// caller's thread (natural back-pressure: a batch larger than the
    /// queue bound never fails, the caller just works alongside the
    /// workers).  Workers pull from one shared queue, so one slow KG does
    /// not serialise the rest of the batch, and all of them share the
    /// per-KG cache namespaces, so overlapping requests in one batch hit
    /// each other's probe results.
    pub fn answer_batch(
        &self,
        requests: &[AnswerRequest],
    ) -> Vec<Result<AnswerResponse, KgqanError>> {
        if requests.len() <= 1 {
            return requests.iter().map(|r| self.answer(r.clone())).collect();
        }
        enum Slot {
            Queued(Ticket<Result<AnswerResponse, KgqanError>>),
            Inline(Box<Result<AnswerResponse, KgqanError>>),
        }
        let slots: Vec<Slot> = requests
            .iter()
            .map(|request| match self.try_enqueue(request.clone()) {
                Ok(ticket) => Slot::Queued(ticket),
                Err(_) => Slot::Inline(Box::new(self.answer(request.clone()))),
            })
            .collect();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Queued(ticket) => ticket.wait().unwrap_or_else(|| {
                    Err(KgqanError::Configuration(
                        "pipeline worker was lost while answering the request".into(),
                    ))
                }),
                Slot::Inline(result) => *result,
            })
            .collect()
    }

    /// Answer a batch under one shared budget, carving a per-request share
    /// out of it with [`Budget::split`].
    ///
    /// This is the fan-out-safe batch entry point: `answer_batch` runs each
    /// request under its *own* deadline only, so a shared deadline passed to
    /// every request lets one stalled KG burn the whole allowance before
    /// its siblings run.  Here each request's deadline is clamped to
    /// `min(own deadline, share)`, so a stalled KG exhausts only its slice
    /// (answered `Partial`) while the others still complete within theirs.
    /// The federation layer routes every multi-KG fan-out through this
    /// path.
    pub fn answer_batch_within(
        &self,
        requests: &[AnswerRequest],
        budget: &Budget,
    ) -> Vec<Result<AnswerResponse, KgqanError>> {
        let share = budget.split(requests.len()).deadline();
        let clamped: Vec<AnswerRequest> = requests
            .iter()
            .map(|request| {
                let mut request = request.clone();
                request.deadline = match (request.deadline, share) {
                    (Some(own), Some(share)) => Some(own.min(share)),
                    (own, share) => own.or(share),
                };
                request
            })
            .collect();
        self.answer_batch(&clamped)
    }

    /// Run the staged pipeline for one request.
    fn run_request(
        &self,
        request: &AnswerRequest,
        endpoint: &dyn SparqlEndpoint,
    ) -> Result<RequestRun, KgqanError> {
        let config = request.overrides.apply(&self.inner.config);
        let budget = Budget::start(request.deadline);
        let request_id = request.id.clone().unwrap_or_else(|| {
            format!(
                "req-{}",
                self.inner.next_request_id.fetch_add(1, Ordering::Relaxed)
            )
        });

        let ctx = StageContext::new(endpoint, &budget, &config);
        let trace = self.inner.pipeline.run(&request.question, &ctx)?;
        Ok(RequestRun {
            request_id,
            endpoint_stats: endpoint.stats(),
            epoch: endpoint.describe().map(|d| d.epoch),
            elapsed: budget.elapsed(),
            trace,
        })
    }
}

/// One completed pipeline run plus its per-request metadata; consumed into
/// an [`AnswerResponse`] without cloning the stage artifacts.
struct RequestRun {
    request_id: String,
    endpoint_stats: RequestStats,
    epoch: Option<u64>,
    elapsed: Duration,
    trace: PipelineTrace,
}

impl RequestRun {
    fn into_response(self, question: &str, kg: &str) -> AnswerResponse {
        let verdict = if self.trace.deadline_exceeded() {
            BudgetVerdict::Partial
        } else {
            BudgetVerdict::Completed
        };
        let trace = self.trace;
        // Per-answer ranking scores: the best Equation-2 score among the
        // executed queries that produced each filtered answer.
        let answer_scores: Vec<f64> = trace
            .filtered
            .answers
            .iter()
            .map(|term| {
                trace
                    .execution
                    .answers
                    .iter()
                    .filter(|a| &a.answer == term)
                    .map(|a| f64::from(a.query_score))
                    .fold(0.0, f64::max)
            })
            .collect();
        let plan_rows: u64 = trace
            .execution
            .query_stats
            .iter()
            .filter_map(|stat| stat.rows_scanned)
            .sum();
        let sources = vec![AnswerSource {
            kg: kg.to_string(),
            epoch: self.epoch,
            elapsed: self.elapsed,
            plan_rows,
        }];
        AnswerResponse {
            request_id: self.request_id,
            kg: kg.to_string(),
            outcome: AnswerOutcome {
                question: question.to_string(),
                answers: trace.filtered.answers,
                boolean: trace.execution.boolean,
                unfiltered_answers: trace.filtered.unfiltered,
                understanding: trace.understanding,
                agp: trace.linked.agp,
                executed_queries: trace.execution.executed_queries(),
                timings: trace.timings,
            },
            query_stats: trace.execution.query_stats,
            endpoint_stats: self.endpoint_stats,
            verdict,
            elapsed: self.elapsed,
            sources,
            answer_scores,
        }
    }
}

/// Builder for [`QaService`].
///
/// ```
/// use std::sync::Arc;
/// use kgqan::service::QaService;
/// use kgqan_endpoint::InProcessEndpoint;
/// use kgqan_rdf::Store;
///
/// let service = QaService::builder()
///     .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())))
///     .endpoint(Arc::new(InProcessEndpoint::new("MAG", Store::new())))
///     .default_kg("DBpedia")
///     .build()
///     .unwrap();
/// assert_eq!(service.kg_names(), vec!["DBpedia", "MAG"]);
/// // Registered KGs are served through per-KG cache namespaces by default.
/// assert_eq!(service.cache_report().per_kg.len(), 2);
/// ```
pub struct QaServiceBuilder {
    config: KgqanConfig,
    understanding: Option<Arc<QuestionUnderstanding>>,
    pipeline: Option<Pipeline>,
    registry: Option<EndpointRegistry>,
    pending_endpoints: Vec<Arc<dyn SparqlEndpoint>>,
    cache: Option<CacheConfig>,
    default_kg: Option<String>,
    pool: PoolConfig,
}

impl QaServiceBuilder {
    fn new() -> Self {
        QaServiceBuilder {
            config: KgqanConfig::default(),
            understanding: None,
            pipeline: None,
            registry: None,
            pending_endpoints: Vec::new(),
            cache: Some(CacheConfig::default()),
            default_kg: None,
            pool: PoolConfig::default(),
        }
    }

    /// Use this service-wide configuration (requests may override the
    /// runtime knobs per call).
    pub fn config(mut self, config: KgqanConfig) -> Self {
        self.config = config;
        self
    }

    /// Reuse an already-trained question-understanding component instead of
    /// training one during `build()`.
    pub fn understanding(mut self, understanding: QuestionUnderstanding) -> Self {
        self.understanding = Some(Arc::new(understanding));
        self
    }

    /// Share a trained question-understanding component with other services.
    pub fn shared_understanding(mut self, understanding: Arc<QuestionUnderstanding>) -> Self {
        self.understanding = Some(understanding);
        self
    }

    /// Run requests through a custom staged [`Pipeline`] instead of the
    /// default KGQAn stages (see [`crate::pipeline`]).  The builder's
    /// understanding component still backs [`QaService::understanding`].
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Register an endpoint under its own name.
    pub fn endpoint(mut self, endpoint: Arc<dyn SparqlEndpoint>) -> Self {
        self.pending_endpoints.push(endpoint);
        self
    }

    /// Use an already-populated registry (replaces endpoints registered so
    /// far on this builder, and that registry's own cache setting wins over
    /// [`QaServiceBuilder::cache`]).
    pub fn registry(mut self, registry: EndpointRegistry) -> Self {
        self.registry = Some(registry);
        self.pending_endpoints.clear();
        self
    }

    /// Configure the per-KG semantic-cache capacities (caching is on by
    /// default).
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Serve every request straight from the endpoints, with no semantic
    /// cache in front of them.
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Name the KG that requests without an explicit target answer from.
    pub fn default_kg(mut self, name: impl Into<String>) -> Self {
        self.default_kg = Some(name.into());
        self
    }

    /// Size the service's worker pool (default: [`PoolConfig::default`]).
    ///
    /// The pool runs [`QaService::answer_batch`] and the requests queued
    /// with [`QaService::try_enqueue`] (the HTTP front-end's admission
    /// path); [`QaService::shutdown`] (or dropping the last service clone)
    /// drains accepted work and joins the threads.
    pub fn worker_pool(mut self, config: PoolConfig) -> Self {
        self.pool = config;
        self
    }

    /// Shorthand for [`QaServiceBuilder::worker_pool`] with `n` workers and
    /// the default queue bound.
    pub fn workers(self, n: usize) -> Self {
        self.worker_pool(PoolConfig::with_workers(n))
    }

    /// Build the service, training the understanding models if none were
    /// supplied (takes a moment).
    ///
    /// Fails with [`KgqanError::Configuration`] if the default KG names an
    /// unregistered endpoint.
    pub fn build(self) -> Result<QaService, KgqanError> {
        let mut registry = self.registry.unwrap_or_else(|| match self.cache {
            Some(config) => EndpointRegistry::with_cache(config),
            None => EndpointRegistry::new(),
        });
        for endpoint in self.pending_endpoints {
            registry.register(endpoint);
        }
        if let Some(default) = &self.default_kg {
            if !registry.contains(default) {
                return Err(KgqanError::Configuration(format!(
                    "default KG {default:?} is not registered (registered: {})",
                    registry.names().join(", ")
                )));
            }
        }
        let understanding = self.understanding.unwrap_or_else(|| {
            Arc::new(QuestionUnderstanding::train_with_variant(
                self.config.seq2seq,
            ))
        });
        let pipeline = self.pipeline.unwrap_or_else(|| {
            let affinity: Arc<dyn SemanticAffinity> = Arc::from(self.config.affinity.build());
            Pipeline::kgqan(Arc::clone(&understanding), affinity)
        });
        Ok(QaService {
            inner: Arc::new(ServiceInner {
                understanding,
                pipeline,
                config: self.config,
                registry,
                default_kg: self.default_kg,
                next_request_id: AtomicU64::new(0),
                pool: WorkerPool::new(self.pool),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_endpoint::InProcessEndpoint;
    use kgqan_rdf::{vocab, Store, Term, Triple};

    fn spouse_store() -> Store {
        let mut store = Store::new();
        let obama = Term::iri("http://dbpedia.org/resource/Barack_Obama");
        let michelle = Term::iri("http://dbpedia.org/resource/Michelle_Obama");
        store.insert_all([
            Triple::new(
                obama.clone(),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str("Barack Obama"),
            ),
            Triple::new(
                michelle.clone(),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str("Michelle Obama"),
            ),
            Triple::new(
                obama,
                Term::iri("http://dbpedia.org/ontology/spouse"),
                michelle,
            ),
        ]);
        store
    }

    fn service_with_one_kg() -> QaService {
        QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
            .build()
            .unwrap()
    }

    #[test]
    fn budget_expiry() {
        let unbounded = Budget::unbounded();
        assert!(!unbounded.expired());
        assert_eq!(unbounded.remaining(), None);
        assert_eq!(unbounded.deadline(), None);

        let expired = Budget::with_deadline(Duration::ZERO);
        assert!(expired.expired());
        assert_eq!(expired.remaining(), Some(Duration::ZERO));

        let generous = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!generous.expired());
        assert!(generous.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn budget_split_floors_and_caps_shares() {
        // Unbounded budgets split into unbounded shares.
        assert_eq!(Budget::unbounded().split(4).deadline(), None);

        // A generous budget splits evenly.
        let share = Budget::with_deadline(Duration::from_secs(8))
            .split(4)
            .deadline()
            .unwrap();
        assert!(share <= Duration::from_secs(2));
        assert!(share > Duration::from_millis(1900));

        // A tight budget keeps the floor so a share is still usable…
        let floored = Budget::with_deadline(Duration::from_millis(40))
            .split(16)
            .deadline()
            .unwrap();
        assert_eq!(floored, Budget::MIN_SPLIT_SHARE);

        // …but the floor never exceeds what actually remains.
        let exhausted = Budget::with_deadline(Duration::ZERO).split(4);
        assert!(exhausted.expired());

        // n = 0 is treated as 1 rather than dividing by zero.
        assert!(Budget::with_deadline(Duration::from_secs(1))
            .split(0)
            .deadline()
            .is_some());
    }

    #[test]
    fn answer_batch_within_shields_fast_kg_from_stalled_sibling() {
        let stalled = InProcessEndpoint::new("Stalled", spouse_store())
            .with_latency(Duration::from_millis(120));
        let service = QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new("Fast", spouse_store())))
            .endpoint(Arc::new(stalled))
            .build()
            .unwrap();

        let question = "Who is the wife of Barack Obama?";
        let requests = vec![
            AnswerRequest::new(question).on_kg("Fast"),
            AnswerRequest::new(question).on_kg("Stalled"),
        ];
        // A shared 100ms budget: each request gets a ~50ms share, so the
        // stalled KG exhausts only its own slice.
        let budget = Budget::with_deadline(Duration::from_millis(100));
        let responses = service.answer_batch_within(&requests, &budget);

        let fast = responses[0].as_ref().unwrap();
        assert_eq!(fast.kg, "Fast");
        assert!(!fast.is_partial());
        assert!(fast
            .outcome
            .answers
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));

        // The stalled KG ran out of its share and degraded to Partial
        // instead of holding the batch hostage.
        let stalled = responses[1].as_ref().unwrap();
        assert_eq!(stalled.kg, "Stalled");
        assert!(stalled.is_partial());
    }

    #[test]
    fn single_kg_response_carries_provenance() {
        let service = service_with_one_kg();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert_eq!(response.sources.len(), 1);
        let source = &response.sources[0];
        assert_eq!(source.kg, "DBpedia");
        assert_eq!(source.epoch, Some(0));
        assert!(source.plan_rows > 0, "in-process engine reports scan work");
        assert!(source.elapsed > Duration::ZERO);
        // One ranking score per answer, all positive.
        assert_eq!(response.answer_scores.len(), response.outcome.answers.len());
        assert!(!response.answer_scores.is_empty());
        assert!(response.answer_scores.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn overrides_apply_over_base_config() {
        let base = KgqanConfig::default();
        assert_eq!(ConfigOverrides::none().apply(&base), base);

        let overridden = ConfigOverrides {
            max_candidate_queries: Some(7),
            filtration_enabled: Some(false),
            ..Default::default()
        }
        .apply(&base);
        assert_eq!(overridden.max_candidate_queries, 7);
        assert!(!overridden.filtration_enabled);
        // Untouched knobs keep the base values.
        assert_eq!(overridden.linker, base.linker);
        assert_eq!(
            overridden.max_productive_queries,
            base.max_productive_queries
        );
        assert_eq!(overridden.affinity, base.affinity);
    }

    #[test]
    fn builder_rejects_unregistered_default_kg() {
        let err = QaService::builder()
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", Store::new())))
            .default_kg("YAGO")
            .build()
            .map(|_| ())
            .unwrap_err();
        let KgqanError::Configuration(msg) = err else {
            panic!("expected Configuration error, got {err:?}");
        };
        assert!(msg.contains("YAGO"));
        assert!(msg.contains("DBpedia"));
    }

    #[test]
    fn sole_endpoint_is_the_implicit_default() {
        let service = service_with_one_kg();
        let response = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert_eq!(response.kg, "DBpedia");
        assert_eq!(response.verdict, BudgetVerdict::Completed);
        assert!(!response.is_partial());
        assert!(response
            .outcome
            .answers
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Michelle_Obama")));
        assert!(!response.query_stats.is_empty());
        assert!(response.endpoint_stats.total_requests > 0);
    }

    #[test]
    fn ingest_updates_the_live_kg_and_subsequent_answers() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Donald Trump?";
        // Before the ingest the KG knows nothing about the subject.
        let before = service.answer(AnswerRequest::new(question)).unwrap();
        assert!(before.outcome.answers.is_empty());

        let trump = Term::iri("http://dbpedia.org/resource/Donald_Trump");
        let melania = Term::iri("http://dbpedia.org/resource/Melania_Trump");
        let report = service
            .ingest(
                "DBpedia",
                kgqan_rdf::IngestBatch::new()
                    .with(Triple::new(
                        trump.clone(),
                        Term::iri(vocab::RDFS_LABEL),
                        Term::literal_str("Donald Trump"),
                    ))
                    .with(Triple::new(
                        melania.clone(),
                        Term::iri(vocab::RDFS_LABEL),
                        Term::literal_str("Melania Trump"),
                    ))
                    .with(Triple::new(
                        trump,
                        Term::iri("http://dbpedia.org/ontology/spouse"),
                        melania,
                    )),
            )
            .unwrap();
        assert_eq!(report.added(), 3);
        assert_eq!(report.epoch(), 1);

        // The same question now finds the freshly ingested facts.
        let after = service.answer(AnswerRequest::new(question)).unwrap();
        assert!(after
            .outcome
            .answers
            .iter()
            .any(|t| t.as_iri() == Some("http://dbpedia.org/resource/Melania_Trump")));

        // Unknown KGs fail cleanly.
        assert!(service
            .ingest("YAGO", kgqan_rdf::IngestBatch::new())
            .is_err());
    }

    #[test]
    fn requests_without_kg_fail_on_ambiguous_registry() {
        let understanding = service_with_one_kg().understanding().clone();
        let service = QaService::builder()
            .shared_understanding(understanding)
            .endpoint(Arc::new(InProcessEndpoint::new("A", Store::new())))
            .endpoint(Arc::new(InProcessEndpoint::new("B", Store::new())))
            .build()
            .unwrap();
        let err = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, KgqanError::Configuration(_)));
        assert!(err.to_string().contains("A, B"));
    }

    #[test]
    fn unknown_kg_error_lists_registered_names() {
        let service = service_with_one_kg();
        let err = service
            .answer(AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("YAGO"))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, KgqanError::Endpoint(_)));
        assert!(err.to_string().contains("DBpedia"));
    }

    #[test]
    fn service_assigns_sequential_request_ids_and_echoes_client_ids() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Barack Obama?";
        let a = service.answer(AnswerRequest::new(question)).unwrap();
        let b = service.answer(AnswerRequest::new(question)).unwrap();
        assert_ne!(a.request_id, b.request_id);
        let c = service
            .answer(AnswerRequest::new(question).with_id("client-7"))
            .unwrap();
        assert_eq!(c.request_id, "client-7");
    }

    #[test]
    fn zero_deadline_yields_flagged_partial_response() {
        let service = service_with_one_kg();
        let response = service
            .answer(
                AnswerRequest::new("Who is the wife of Barack Obama?")
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(response.is_partial());
        assert_eq!(response.verdict, BudgetVerdict::Partial);
        // Nothing was linked or executed, so there is nothing to answer —
        // but the request *returned* instead of running the full pipeline.
        assert!(response.outcome.answers.is_empty());
        assert!(response.query_stats.is_empty());
    }

    #[test]
    fn pooled_service_exposes_queue_depth_and_drains_on_shutdown() {
        let understanding = service_with_one_kg().understanding().clone();
        let service = QaService::builder()
            .shared_understanding(understanding)
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
            .worker_pool(crate::pool::PoolConfig {
                workers: 2,
                queue_bound: 8,
            })
            .build()
            .unwrap();
        assert_eq!(service.worker_pool().stats().workers, 2);
        assert_eq!(service.queue_depth(), 0);

        let question = "Who is the wife of Barack Obama?";
        let requests: Vec<AnswerRequest> = (0..4)
            .map(|i| AnswerRequest::new(question).with_id(format!("r{i}")))
            .collect();
        let responses = service.answer_batch(&requests);
        assert_eq!(responses.len(), 4);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.as_ref().unwrap().request_id, format!("r{i}"));
        }
        assert!(service.worker_pool().stats().completed >= 4);

        // Single enqueued requests resolve to the same result as `answer`.
        let ticket = service.try_enqueue(AnswerRequest::new(question)).unwrap();
        let queued = ticket.wait().expect("worker survived").unwrap();
        let direct = service.answer(AnswerRequest::new(question)).unwrap();
        assert_eq!(queued.outcome.answers, direct.outcome.answers);

        // Shutdown drains cleanly; queued work is then refused but direct
        // answering still works.
        service.shutdown();
        assert!(matches!(
            service.try_enqueue(AnswerRequest::new(question)),
            Err(crate::pool::SubmitError::ShuttingDown)
        ));
        assert_eq!(service.queue_depth(), 0);
        assert!(!service
            .answer(AnswerRequest::new(question))
            .unwrap()
            .outcome
            .answers
            .is_empty());
    }

    #[test]
    fn answer_batch_preserves_request_order() {
        let service = service_with_one_kg();
        let requests = vec![
            AnswerRequest::new("Who is the wife of Barack Obama?").with_id("first"),
            AnswerRequest::new("Who is the wife of Barack Obama?").with_id("second"),
            AnswerRequest::new("Who is the wife of Barack Obama?").on_kg("Nope"),
        ];
        let responses = service.answer_batch(&requests);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].as_ref().unwrap().request_id, "first");
        assert_eq!(responses[1].as_ref().unwrap().request_id, "second");
        assert!(responses[2].is_err());
        assert!(service.answer_batch(&[]).is_empty());
    }

    #[test]
    fn repeated_questions_hit_the_kg_cache() {
        let service = service_with_one_kg();
        let question = "Who is the wife of Barack Obama?";

        let cold = service.answer_traced(AnswerRequest::new(question)).unwrap();
        assert_eq!(cold.cache.hits, 0);
        assert!(cold.cache.misses > 0, "cold request must probe the KG");
        let cold_requests = cold.response.endpoint_stats.total_requests;

        let warm = service.answer_traced(AnswerRequest::new(question)).unwrap();
        assert!(warm.cache.hits > 0, "repeat must hit the cache");
        assert_eq!(warm.cache.misses, 0, "warm repeat must not re-probe");
        // The warm request reached the engine zero times.
        assert_eq!(warm.response.endpoint_stats.total_requests, cold_requests);
        // Identical answers either way.
        assert_eq!(warm.response.outcome.answers, cold.response.outcome.answers);
        // The aggregate report sees the same counters.
        let report = service.cache_report();
        assert_eq!(report.per_kg.len(), 1);
        assert!(report.kg("DBpedia").unwrap().hits >= warm.cache.hits);

        // Invalidation flushes the namespace: the next request misses again.
        assert!(service.invalidate_cache("DBpedia"));
        let after = service.answer_traced(AnswerRequest::new(question)).unwrap();
        assert!(after.cache.misses > 0);
        assert_eq!(
            after.response.outcome.answers,
            cold.response.outcome.answers
        );
    }

    #[test]
    fn no_cache_builder_disables_the_layer() {
        let understanding = service_with_one_kg().understanding().clone();
        let service = QaService::builder()
            .shared_understanding(understanding)
            .endpoint(Arc::new(InProcessEndpoint::new("DBpedia", spouse_store())))
            .no_cache()
            .build()
            .unwrap();
        assert!(service.cache_report().is_uncached());
        let question = "Who is the wife of Barack Obama?";
        let first = service.answer_traced(AnswerRequest::new(question)).unwrap();
        let second = service.answer_traced(AnswerRequest::new(question)).unwrap();
        assert_eq!(first.cache, CacheStats::default());
        assert_eq!(second.cache, CacheStats::default());
        // Without the cache the repeat re-probes the endpoint.
        assert!(
            second.response.endpoint_stats.total_requests
                > first.response.endpoint_stats.total_requests
        );
        assert!(!service.invalidate_cache("DBpedia"));
    }

    #[test]
    fn traced_answers_expose_stage_artifacts_and_timings() {
        let service = service_with_one_kg();
        let traced = service
            .answer_traced(AnswerRequest::new("Who is the wife of Barack Obama?"))
            .unwrap();
        assert!(!traced.trace.understanding.pgp.is_empty());
        assert!(!traced.trace.linked.candidates.is_empty());
        assert!(!traced.trace.execution.query_stats.is_empty());
        assert_eq!(
            traced.trace.filtered.answers,
            traced.response.outcome.answers
        );
        assert_eq!(traced.response.outcome.timings, traced.trace.timings);
    }
}
