//! The traced run's instrumentation, written entirely in the benchmark:
//! decorators around the program's public stage traits (`Understand`,
//! `Link`, `Execute`, `Filter`) and its `SparqlEndpoint` trait that record
//! spans into memory, plus the self-time arithmetic over those spans.
//!
//! Every decorator forwards every trait method to the wrapped
//! implementation; the only extra work on the request path is reading the
//! clock and pushing one span record, so the traced program computes
//! exactly what the untraced one does.
//!
//! Attribution: a pipeline run executes its four stages one after another
//! on one worker thread, so a thread-local context carries the current
//! run id and the active stage span.  The understand decorator opens a
//! run; engine calls made while a stage span is active become its
//! children.  Engine calls outside any stage (the HTTP SPARQL route) are
//! roots, attributed later by time window.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kgqan::pipeline::{
    Execute, Filter, FilteredAnswers, Link, LinkedQuestion, StageContext, Understand,
};
use kgqan::{ExecutionOutcome, KgqanError, Understanding};
use kgqan_endpoint::{
    EndpointDescription, EndpointError, EngineDialect, RequestStats, ServiceResolver,
    SparqlEndpoint, TracedQuery,
};
use kgqan_rdf::{IngestBatch, IngestReport};
use kgqan_sparql::{Query, QueryResults};

use crate::json::write_str;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Layer name: `understand`, `link`, `execute`, `filter`, `engine`,
    /// `ingest`, or a client-side `client.<op>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The request the span belongs to: the pipeline run for stage and
    /// engine spans, the client request for client spans.
    pub request: u64,
    /// Free-form label: the question (understand), the KG (link), the
    /// operation's read class (client spans).
    pub tag: String,
    /// A count measured at the boundary: candidates generated (link),
    /// queries executed (execute), triples added (ingest).
    pub count: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e6
    }
}

/// The in-memory span sink shared by every decorator of one traced stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// (current pipeline run, active stage span) of this thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Tracer {
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the origin of `at`.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Nanoseconds since the origin, now.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Store one span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Run `f` as a stage span of the current thread's pipeline run.
    fn stage<T>(
        &self,
        name: &'static str,
        opens_run: bool,
        tag: impl FnOnce() -> String,
        count: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (mut run, _) = CONTEXT.with(Cell::get);
        if opens_run {
            run = self.id();
        }
        let id = self.id();
        CONTEXT.with(|c| c.set((run, id)));
        let start = self.now();
        let out = f();
        let end = self.now();
        CONTEXT.with(|c| c.set((run, 0)));
        self.record(Span {
            id,
            name,
            start,
            end,
            parent: 0,
            request: run,
            tag: tag(),
            count: count(&out),
        });
        out
    }

    /// Run `f` as an engine-level span under the active stage, if any.
    fn leaf<T>(
        &self,
        name: &'static str,
        count: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (run, stage) = CONTEXT.with(Cell::get);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(Span {
            id: self.id(),
            name,
            start,
            end,
            parent: stage,
            request: if stage == 0 { 0 } else { run },
            tag: String::new(),
            count: count(&out),
        });
        out
    }
}

/// `Understand` decorator; opens a pipeline run.
pub struct TracedUnderstand {
    /// The wrapped stage.
    pub inner: Arc<dyn Understand>,
    /// The sink.
    pub tracer: Arc<Tracer>,
}

impl Understand for TracedUnderstand {
    fn understand(&self, question: &str) -> Result<Understanding, KgqanError> {
        self.tracer.stage(
            "understand",
            true,
            || question.to_string(),
            |_| 0,
            || self.inner.understand(question),
        )
    }
}

/// `Link` decorator; tags the span with the target KG and counts
/// candidate queries.
pub struct TracedLink {
    /// The wrapped stage.
    pub inner: Arc<dyn Link>,
    /// The sink.
    pub tracer: Arc<Tracer>,
}

impl Link for TracedLink {
    fn link(
        &self,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> Result<LinkedQuestion, KgqanError> {
        self.tracer.stage(
            "link",
            false,
            || ctx.endpoint.name().to_string(),
            |out: &Result<LinkedQuestion, KgqanError>| {
                out.as_ref().map_or(0, |l| l.candidates.len() as u64)
            },
            || self.inner.link(understanding, ctx),
        )
    }
}

/// `Execute` decorator; counts executed queries.
pub struct TracedExecute {
    /// The wrapped stage.
    pub inner: Arc<dyn Execute>,
    /// The sink.
    pub tracer: Arc<Tracer>,
}

impl Execute for TracedExecute {
    fn execute(
        &self,
        linked: &LinkedQuestion,
        ctx: &StageContext<'_>,
    ) -> Result<ExecutionOutcome, KgqanError> {
        self.tracer.stage(
            "execute",
            false,
            String::new,
            |out: &Result<ExecutionOutcome, KgqanError>| {
                out.as_ref().map_or(0, |o| o.query_stats.len() as u64)
            },
            || self.inner.execute(linked, ctx),
        )
    }
}

/// `Filter` decorator.
pub struct TracedFilter {
    /// The wrapped stage.
    pub inner: Arc<dyn Filter>,
    /// The sink.
    pub tracer: Arc<Tracer>,
}

impl Filter for TracedFilter {
    fn filter(
        &self,
        execution: &ExecutionOutcome,
        understanding: &Understanding,
        ctx: &StageContext<'_>,
    ) -> FilteredAnswers {
        self.tracer.stage(
            "filter",
            false,
            String::new,
            |_| 0,
            || self.inner.filter(execution, understanding, ctx),
        )
    }
}

/// `SparqlEndpoint` decorator, registered *under* the registry's cache so
/// that only the calls that reach the engine are timed.
pub struct TracedEndpoint {
    /// The wrapped engine.
    pub inner: Arc<dyn SparqlEndpoint>,
    /// The sink.
    pub tracer: Arc<Tracer>,
}

impl SparqlEndpoint for TracedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dialect(&self) -> EngineDialect {
        self.inner.dialect()
    }

    fn query(&self, sparql: &str) -> Result<QueryResults, EndpointError> {
        self.tracer
            .leaf("engine", |_| 0, || self.inner.query(sparql))
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, EndpointError> {
        self.tracer
            .leaf("engine", |_| 0, || self.inner.query_parsed(query))
    }

    fn query_traced(&self, query: &Query) -> Result<TracedQuery, EndpointError> {
        self.tracer
            .leaf("engine", |_| 0, || self.inner.query_traced(query))
    }

    fn query_traced_within(
        &self,
        query: &Query,
        deadline: Option<Instant>,
    ) -> Result<TracedQuery, EndpointError> {
        self.tracer.leaf(
            "engine",
            |_| 0,
            || self.inner.query_traced_within(query, deadline),
        )
    }

    fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, EndpointError> {
        self.tracer.leaf(
            "ingest",
            |out: &Result<IngestReport, EndpointError>| {
                out.as_ref().map_or(0, |r| r.added() as u64)
            },
            || self.inner.ingest(batch),
        )
    }

    fn describe(&self) -> Option<EndpointDescription> {
        self.inner.describe()
    }

    fn query_federated(
        &self,
        query: &Query,
        services: &dyn ServiceResolver,
    ) -> Result<TracedQuery, EndpointError> {
        self.tracer.leaf(
            "engine",
            |_| 0,
            || self.inner.query_federated(query, services),
        )
    }

    fn stats(&self) -> RequestStats {
        self.inner.stats()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval covered by its children (overlapping children count once,
/// and a child's part outside its parent counts not at all).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (
                span.id,
                (span.end.saturating_sub(span.start)).saturating_sub(covered),
            )
        })
        .collect()
}

/// Write spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
/// `parent`, `request`, `tag`, `count`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for span in spans {
        line.clear();
        line.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"tag\":",
            span.id, span.name, span.start, span.end, span.parent, span.request
        ));
        write_str(&mut line, &span.tag);
        line.push_str(&format!(",\"count\":{}}}\n", span.count));
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "t",
            start,
            end,
            parent,
            request: 1,
            tag: String::new(),
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // link [0,100] ⊃ engine [10,30] and [50,60]; engine [50,60] ⊃ [52,55].
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
            span(4, 3, 52, 55),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 70);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 7);
        assert_eq!(own[&4], 3);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 40 - 10);
    }

    #[test]
    fn stages_nest_engine_calls_and_share_a_run() {
        let tracer = Tracer::new(Instant::now());
        let run = tracer.stage("understand", true, || "q".into(), |_| 0, || 1);
        assert_eq!(run, 1);
        tracer.stage(
            "link",
            false,
            String::new,
            |_| 3,
            || {
                tracer.leaf("engine", |_| 0, || ());
            },
        );
        tracer.leaf("engine", |_| 0, || ());
        let spans = tracer.spans();
        let understand = spans.iter().find(|s| s.name == "understand").unwrap();
        let link = spans.iter().find(|s| s.name == "link").unwrap();
        let engines: Vec<&Span> = spans.iter().filter(|s| s.name == "engine").collect();
        assert_eq!(link.request, understand.request);
        assert_eq!(link.count, 3);
        assert_eq!(engines[0].parent, link.id);
        assert_eq!(engines[0].request, understand.request);
        // Outside any stage an engine call is a root.
        assert_eq!(engines[1].parent, 0);
        assert_eq!(engines[1].request, 0);
    }
}
