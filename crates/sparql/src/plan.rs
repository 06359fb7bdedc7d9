//! Cost-based query planning and streaming execution.
//!
//! This module is the *plan → execute* split of the engine.  [`Planner`]
//! compiles a parsed [`Query`] into a [`PhysicalPlan`]:
//!
//! * each basic graph pattern's triple patterns are reordered into a
//!   **greedy cardinality-ordered left-deep join**: at every step the
//!   cheapest remaining pattern is chosen, where "cheap" is an exact
//!   `O(log n)` range count over the constant positions
//!   ([`Store::scan_count`]) divided by per-predicate distinct counts
//!   ([`kgqan_rdf::PlannerStats`]) for positions held by already-joined
//!   variables — patterns connected to the rows produced so far are
//!   preferred so cartesian products only happen when the query forces them;
//! * full-text (`bif:contains`) steps are costed from the text index's
//!   posting lists: generative probes are scheduled like any other pattern,
//!   but once their subject is bound by an earlier selective step they
//!   degrade to per-row membership filters (estimate 1);
//! * `FILTER` expressions are **pushed down** to the earliest join step at
//!   which every variable they mention (and that the BGP binds at all) is
//!   bound, so doomed rows die before fanning out;
//! * `DISTINCT`, `OFFSET` and `LIMIT` are plan operators evaluated while
//!   rows stream out of the join pipeline — a `LIMIT k` query stops pulling
//!   (and therefore stops scanning) the moment the page is full, instead of
//!   materialising every match and truncating.
//!
//! Execution ([`PhysicalPlan::execute`]) is a lazy iterator pipeline over
//! id-level rows; nothing upstream runs until the output operator pulls.
//! Every executed plan reports [`ExecMetrics`] — most importantly
//! `rows_scanned`, the number of index/text-index entries the joins
//! touched — and every plan carries a human-readable [`PlanSummary`]
//! (`EXPLAIN`), which the in-process endpoint surfaces per candidate query
//! all the way up to `answer_traced`.
//!
//! ```
//! use kgqan_rdf::{Store, Term, Triple};
//! use kgqan_sparql::{parse_query, plan::Planner};
//!
//! let mut store = Store::new();
//! store.insert(Triple::new(
//!     Term::iri("http://e/Baltic_Sea"),
//!     Term::iri("http://e/outflow"),
//!     Term::iri("http://e/Danish_straits"),
//! ));
//! let query = parse_query(
//!     "SELECT ?sea WHERE { ?sea <http://e/outflow> <http://e/Danish_straits> . }",
//! )
//! .unwrap();
//!
//! let plan = Planner::new(&store).plan(&query);
//! println!("{}", plan.summary()); // EXPLAIN-style operator tree
//! let run = plan.execute().unwrap();
//! assert_eq!(run.results.rows().len(), 1);
//! assert_eq!(run.metrics.rows_scanned, 1); // one index entry touched
//! ```

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use kgqan_rdf::{
    EncodedTriple, EncodedTriplePattern, PartitionRange, PlannerStats, Store, StoreSnapshot, Term,
    TermId, TextMatch,
};

use crate::exec::{self, ExecutorPool};

use crate::ast::{Expression, GraphPattern, Query, QueryForm, TriplePatternAst, VarOrTerm};
use crate::error::SparqlError;
use crate::eval::{
    compile_triple_pattern, effective_text_cap, eval_expression, is_text_search_pattern,
    parse_text_query, term_truthiness, text_query_words, CompiledTriplePattern, IdRow, Slot,
    VarRegistry,
};
use crate::results::{Binding, QueryResults, ResultSet};

/// Execution counters of one planned query run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Index entries and text-index matches the join pipeline touched.  This
    /// is the engine's unit of work: a `LIMIT k` query over a large store
    /// should keep it near `k / selectivity`, not near the store size.
    pub rows_scanned: u64,
    /// Rows in the final result (1/0 for ASK).
    pub rows_emitted: u64,
    /// `true` when an [`ExecOptions::deadline`] cut the run short: the
    /// results are a correct *prefix* of the full answer, not the full
    /// answer.
    pub deadline_exceeded: bool,
    /// Set when the run's morsels were spread over the shared executor
    /// pool; `None` when the plan ran as one morsel on the caller's thread.
    pub parallel: Option<ParallelMetrics>,
}

/// Work distribution of one morsel-parallel run, surfaced through
/// [`ExecMetrics`] all the way up to `answer_traced`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelMetrics {
    /// Workers that actually drained morsels (the coordinating thread plus
    /// every helper the shared pool had room for) — may be lower than the
    /// planned degree of parallelism under inter-query load.
    pub dop: usize,
    /// Partitions the driver scan was split into.
    pub morsels: usize,
    /// Index entries each participating worker scanned, coordinator first.
    pub rows_scanned_per_worker: Vec<u64>,
}

/// Per-run execution knobs, passed to [`PhysicalPlan::execute_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Stop producing rows at this instant and return what has been
    /// computed so far with [`ExecMetrics::deadline_exceeded`] set.  Every
    /// morsel checks the deadline every 256 rows it pulls; a parallel run
    /// also checks it before claiming each morsel.  ASK queries ignore it:
    /// a cut-short ASK could only answer a wrong `false`.
    pub deadline: Option<Instant>,
}

/// Planner knobs for morsel-driven parallel execution, installed with
/// [`Planner::with_parallelism`] (and on by default for planners built via
/// [`Planner::for_shared_snapshot`]).
///
/// The degree of parallelism (DOP) is chosen from the planner's own
/// cardinality estimate for the driver scan:
/// `dop = clamp(estimate / rows_per_worker, 1, max_dop)` — a query whose
/// driving scan is estimated under `2 × rows_per_worker` therefore runs as
/// one unpartitioned morsel on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Upper bound on workers per query (defaults to the machine's
    /// available parallelism).
    pub max_dop: usize,
    /// Driver-scan rows one worker is expected to absorb; the DOP divisor.
    pub rows_per_worker: f64,
    /// Morsels per chosen worker: more morsels mean finer-grained work
    /// stealing (and deadline checks) at slightly more scheduling overhead.
    pub morsels_per_worker: usize,
    /// `LIMIT`/`OFFSET` pages smaller than this run as one morsel: a small
    /// page over a huge scan finishes faster by streaming and stopping
    /// early than by scanning every partition.
    pub min_page_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            max_dop: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rows_per_worker: 50_000.0,
            morsels_per_worker: 4,
            min_page_rows: 4_096,
        }
    }
}

/// One operator line of a rendered plan: its nesting depth, a label such as
/// `scan ?sea <…outflow> ?x .`, and the planner's cardinality estimate for
/// the step (absolute rows for the first step of a BGP, expected rows per
/// input row afterwards).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    /// Nesting depth in the operator tree (0 = outermost).
    pub depth: usize,
    /// Human-readable operator description.
    pub label: String,
    /// The planner's cardinality estimate, where meaningful.
    pub estimate: Option<f64>,
}

/// The `EXPLAIN`-able shape of a [`PhysicalPlan`]: a flattened pre-order
/// walk of the operator tree.  Cheap to clone and carry in per-query
/// statistics (`QueryStat` in the `kgqan` core crate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSummary {
    /// Operator lines in execution order (outer operators first).
    pub ops: Vec<PlanOp>,
}

impl PlanSummary {
    fn push(&mut self, depth: usize, label: impl Into<String>, estimate: Option<f64>) {
        self.ops.push(PlanOp {
            depth,
            label: label.into(),
            estimate,
        });
    }

    /// The labels of the join steps (scan / text / never-matches / service
    /// lines), in the order the executor runs them — handy for asserting a
    /// join order.
    pub fn step_labels(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter(|op| {
                op.label.starts_with("scan ")
                    || op.label.starts_with("text ")
                    || op.label.starts_with("never-matches ")
                    || op.label.starts_with("service ")
            })
            .map(|op| op.label.as_str())
            .collect()
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            for _ in 0..op.depth {
                f.write_str("  ")?;
            }
            f.write_str(&op.label)?;
            if let Some(est) = op.estimate {
                write!(f, "  (est {est:.1})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Resolves `SERVICE <kg:name>` groups to other query endpoints.
///
/// The planner itself knows one [`Store`]; federation across registered KGs
/// lives a crate up (`kgqan-endpoint`'s `EndpointRegistry` implements this
/// trait).  Keeping the trait here lets the streaming executor call out to a
/// remote KG mid-pipeline without `kgqan-sparql` depending on the endpoint
/// layer.  Install one with [`Planner::with_services`].
pub trait ServiceResolver: Send + Sync {
    /// The KG names this resolver can execute against, used by
    /// [`Planner::plan_checked`] to reject unknown targets with a helpful
    /// error message.
    fn service_names(&self) -> Vec<String>;

    /// Execute `query` against the KG registered under `kg`.
    fn execute_service(&self, kg: &str, query: &Query) -> Result<QueryResults, SparqlError>;
}

/// Cardinality guess for a SERVICE group: the planner has no statistics for
/// the remote KG, so every SERVICE step is costed at a flat row count —
/// expensive enough that local scans are preferred first, finite so the
/// step still schedules.
const SERVICE_ESTIMATE: f64 = 256.0;

/// First id of the run-scoped *foreign term* range: terms returned by a
/// remote SERVICE endpoint that the local dictionary has never seen are
/// interned here so they can flow through the id-level join pipeline.  Ids
/// below this value are local dictionary ids; local stores would need two
/// billion terms to collide, far beyond this engine's scale.
const FOREIGN_BASE: u32 = 1 << 31;

/// Run-scoped side dictionary for remote terms (see [`FOREIGN_BASE`]).
///
/// Interning is consistent within one run — the same remote term always maps
/// to the same synthetic id, so rows from two SERVICE groups still join on
/// equality.  A synthetic id can never equal a local id, which gives the
/// correct join semantics for free: a remote term absent from the local
/// store cannot match a locally-bound variable.  Local scans and FILTERs
/// over foreign-bound variables degrade safely (match nothing / see
/// unbound) because foreign ids resolve to no local term.
#[derive(Default)]
struct ForeignTerms {
    ids: RefCell<HashMap<Term, TermId>>,
    terms: RefCell<Vec<Term>>,
}

impl ForeignTerms {
    /// Map a remote term to an id: the local dictionary id when the store
    /// knows the term, a stable synthetic id otherwise.
    fn intern(&self, store: &Store, term: &Term) -> TermId {
        if let Some(id) = store.id_of(term) {
            return id;
        }
        if let Some(id) = self.ids.borrow().get(term) {
            return *id;
        }
        let mut terms = self.terms.borrow_mut();
        let id = TermId(FOREIGN_BASE + terms.len() as u32);
        terms.push(term.clone());
        self.ids.borrow_mut().insert(term.clone(), id);
        id
    }

    /// Decode an id through the local dictionary or the foreign table.
    fn resolve(&self, store: &Store, id: TermId) -> Option<Term> {
        if id.0 >= FOREIGN_BASE {
            self.terms
                .borrow()
                .get((id.0 - FOREIGN_BASE) as usize)
                .cloned()
        } else {
            store.term_of(id).cloned()
        }
    }

    /// Decode a projected id row through the local dictionary or the
    /// foreign table.
    fn decode_row(&self, store: &Store, variables: &[String], row: &IdRow) -> Binding {
        let mut binding = Binding::new();
        for (name, id) in variables.iter().zip(row) {
            if let Some(term) = id.and_then(|id| self.resolve(store, id)) {
                binding.set(name.clone(), term);
            }
        }
        binding
    }
}

/// One remote solution, projected onto local variable slots and id-interned
/// (see [`ForeignTerms`]).
type ServiceRow = Vec<(usize, TermId)>;

/// Per-plan counters sizing the run-scoped caches: one slot per
/// constant-string text step, one per SERVICE group.
#[derive(Default)]
struct SlotCounters {
    text: usize,
    service: usize,
}

/// What one join step does.
#[derive(Debug, Clone)]
enum StepKind {
    /// An index scan of an id-compiled pattern.
    Scan(CompiledTriplePattern),
    /// A full-text probe (generative when its subject is unbound, a
    /// membership filter once it is bound).
    TextSearch {
        /// Index into the run's text-match cache.  The cache lives on the
        /// *execution*, not on a pipeline closure, so a constant-string
        /// search runs once per run even when OPTIONAL/UNION re-build the
        /// step's pipeline once per input row.
        cache_slot: usize,
        /// The search words when the query string is a constant literal —
        /// row-independent, so the match set is cacheable.  `None` when the
        /// string comes from a variable binding (resolved per row).
        constant_words: Option<Vec<String>>,
    },
    /// A constant term of the pattern is absent from the dictionary, so the
    /// pattern provably matches nothing in this store.
    NeverMatches,
}

/// One planned join step of a basic graph pattern: the operation, the AST
/// pattern it came from (for text resolution and labels), the planner's
/// estimate, and the filters pushed down to run right after it.
#[derive(Debug, Clone)]
struct PlanStep {
    kind: StepKind,
    ast: TriplePatternAst,
    estimate: f64,
    filters: Vec<Expression>,
    /// `true` on the plan's *driver* scan: the first step of the leftmost
    /// BGP, the only step whose input is always the single seed row.  A
    /// parallel run partitions exactly this scan into morsels; every other
    /// step runs unchanged inside each morsel.
    driver: bool,
}

/// A planned operator tree over id rows.
#[derive(Debug, Clone)]
enum PlanNode {
    /// A join-ordered basic graph pattern.  `pre_filters` are pushed-down
    /// filters none of whose variables are bound by this BGP's own steps
    /// (they only see input bindings, so they run before any fan-out).
    Bgp {
        pre_filters: Vec<Expression>,
        steps: Vec<PlanStep>,
    },
    Join(Box<PlanNode>, Box<PlanNode>),
    LeftJoin(Box<PlanNode>, Box<PlanNode>),
    Union(Box<PlanNode>, Box<PlanNode>),
    /// A residual filter that could not be pushed into a BGP.
    Filter(Box<PlanNode>, Expression),
    /// A `SERVICE <kg:name>` group: run `query` against another registered
    /// KG once per run (cached in the execution's service slot), then join
    /// the remote rows into the stream on the shared variable slots.
    Service {
        /// Registry name of the remote KG.
        kg: String,
        /// `SELECT *` over the group's pattern, executed remotely.
        query: Query,
        /// Remote variable name → local slot, for the merge join.
        binds: Vec<(String, usize)>,
        /// Index into the run's service-result cache.
        cache_slot: usize,
        /// The planner's (flat) cardinality guess for the remote rows.
        estimate: f64,
    },
}

/// A query compiled against one store: variables numbered, constants
/// resolved to dictionary ids, joins cost-ordered, filters pushed down, and
/// the result operators (`DISTINCT`/`OFFSET`/`LIMIT`) made explicit.
pub struct PhysicalPlan<'s> {
    store: &'s Store,
    vars: Arc<VarRegistry>,
    root: Arc<PlanNode>,
    /// The epoch snapshot this plan was compiled against, when the planner
    /// was built from one ([`Planner::for_shared_snapshot`]).  Owning the
    /// `Arc` is what lets a parallel run hand `'static` morsel jobs to the
    /// shared executor pool without copying the store.
    shared: Option<Arc<StoreSnapshot>>,
    /// Morsel-parallelism knobs; `None` plans always run as one morsel.
    parallel: Option<ParallelConfig>,
    projection: Vec<String>,
    is_ask: bool,
    distinct: bool,
    limit: Option<usize>,
    offset: usize,
    text_cap: usize,
    /// Number of text-search steps in the plan (sizes the per-run cache).
    text_slots: usize,
    /// Number of SERVICE groups in the plan (sizes the per-run cache).
    service_slots: usize,
    /// Resolver for SERVICE groups, inherited from the planner.
    services: Option<&'s dyn ServiceResolver>,
    /// Built lazily: the untraced execution paths never pay for rendering
    /// operator labels.
    summary: OnceLock<PlanSummary>,
}

impl fmt::Debug for PhysicalPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPlan")
            .field("root", &self.root)
            .field("projection", &self.projection)
            .field("is_ask", &self.is_ask)
            .field("distinct", &self.distinct)
            .field("limit", &self.limit)
            .field("offset", &self.offset)
            .field("has_services", &self.services.is_some())
            .finish_non_exhaustive()
    }
}

/// The output of one planned run: the results plus the work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedExecution {
    /// The query results.
    pub results: QueryResults,
    /// How much work the streaming pipeline did.
    pub metrics: ExecMetrics,
}

/// Compiles queries into [`PhysicalPlan`]s over one store, using the
/// store's cached [`PlannerStats`] for cardinality estimation.
pub struct Planner<'s> {
    store: &'s Store,
    stats: Arc<PlannerStats>,
    services: Option<&'s dyn ServiceResolver>,
    /// Set by [`Planner::for_shared_snapshot`]: the owned snapshot handle
    /// its plans carry for parallel execution.
    shared: Option<Arc<StoreSnapshot>>,
    parallel: Option<ParallelConfig>,
}

/// Convenience: plan and render the `EXPLAIN` summary of a query in one
/// call.
pub fn explain(store: &Store, query: &Query) -> PlanSummary {
    Planner::new(store).plan(query).summary().clone()
}

impl<'s> Planner<'s> {
    /// Create a planner over `store`.
    pub fn new(store: &'s Store) -> Self {
        Planner {
            stats: store.planner_stats(),
            store,
            services: None,
            shared: None,
            parallel: None,
        }
    }

    /// Install morsel-parallelism knobs: plans compiled afterwards may
    /// execute their driving scan as parallel morsels on the shared
    /// executor pool (see [`ParallelConfig`] for the DOP heuristic).
    ///
    /// Parallel execution additionally requires an *owned* snapshot handle
    /// — build the planner with [`Planner::for_shared_snapshot`]; on a
    /// plain borrowed [`Store`] the configuration is inert and every run is
    /// one morsel on the caller's thread.
    pub fn with_parallelism(mut self, config: ParallelConfig) -> Self {
        self.parallel = Some(config);
        self
    }

    /// Install a resolver for `SERVICE <kg:name>` groups.
    ///
    /// Plans compiled afterwards can execute federated queries: each SERVICE
    /// group is sent to the resolver (typically `kgqan-endpoint`'s
    /// `EndpointRegistry`, which routes through the per-KG semantic cache)
    /// and the remote rows are joined back into the local pipeline.  Without
    /// a resolver, executing a plan with a SERVICE group fails at run time;
    /// use [`Planner::plan_checked`] to fail at plan time instead.
    pub fn with_services(mut self, services: &'s dyn ServiceResolver) -> Self {
        self.services = Some(services);
        self
    }

    /// Like [`Planner::plan`], but fail fast — at plan time — when the query
    /// contains a `SERVICE` group that cannot execute: either no resolver is
    /// installed, or a target KG is not one the resolver knows.  The
    /// unknown-KG error lists the available names.
    pub fn plan_checked(&self, query: &Query) -> Result<PhysicalPlan<'s>, SparqlError> {
        let targets = query.pattern.service_targets();
        if !targets.is_empty() {
            let Some(services) = self.services else {
                return Err(SparqlError::Service {
                    kg: targets[0].to_string(),
                    message: "no service resolver installed (use Planner::with_services)"
                        .to_string(),
                });
            };
            let available = services.service_names();
            for kg in targets {
                if !available.iter().any(|name| name == kg) {
                    return Err(SparqlError::UnknownService {
                        kg: kg.to_string(),
                        available: available.clone(),
                    });
                }
            }
        }
        Ok(self.plan(query))
    }

    /// Create a planner pinned to one epoch snapshot of a live store.
    ///
    /// The planner's cardinality estimates, the plans it compiles, and the
    /// scans those plans run all observe the *same* epoch, no matter how
    /// many ingest batches are published concurrently.  Snapshots carry
    /// pre-installed [`PlannerStats`], so construction does no stats
    /// compute.
    ///
    /// The plans keep a clone of the `Arc`, which enables morsel-driven
    /// parallel execution (with [`ParallelConfig::default`]; tune or
    /// effectively disable it via [`Planner::with_parallelism`]): a
    /// parallel run ships `'static` morsel jobs to the shared executor
    /// pool, and every worker reads the pinned epoch.
    ///
    /// ```
    /// use kgqan_rdf::{IngestBatch, LiveStore, Store, Term, Triple};
    /// use kgqan_sparql::{parse_query, Planner};
    ///
    /// let live = LiveStore::new(Store::new());
    /// live.ingest(IngestBatch::from_iter([Triple::new(
    ///     Term::iri("http://e/s"),
    ///     Term::iri("http://e/p"),
    ///     Term::iri("http://e/o"),
    /// )]))
    /// .unwrap();
    ///
    /// let snapshot = live.snapshot();
    /// let query = parse_query("SELECT ?s WHERE { ?s <http://e/p> ?o }").unwrap();
    /// let planner = Planner::for_shared_snapshot(&snapshot);
    /// assert_eq!(planner.plan(&query).execute().unwrap().results.rows().len(), 1);
    /// ```
    pub fn for_shared_snapshot(snapshot: &'s Arc<StoreSnapshot>) -> Self {
        Planner {
            stats: snapshot.planner_stats(),
            store: snapshot,
            services: None,
            shared: Some(Arc::clone(snapshot)),
            parallel: Some(ParallelConfig::default()),
        }
    }

    /// Compile a query into a physical plan.
    ///
    /// Planning never fails: constants missing from the dictionary become
    /// `never-matches` steps (scheduled first, so they empty the pipeline
    /// immediately) instead of errors.
    pub fn plan(&self, query: &Query) -> PhysicalPlan<'s> {
        let vars = VarRegistry::from_pattern(&query.pattern);
        let text_cap = effective_text_cap(query);
        let mut bound: HashSet<usize> = HashSet::new();
        let mut slots = SlotCounters::default();
        let mut root = self.compile(&query.pattern, &vars, &mut bound, text_cap, &mut slots);
        mark_driver(&mut root);

        let (projection, is_ask, distinct) = match &query.form {
            QueryForm::Ask => (Vec::new(), true, false),
            QueryForm::Select {
                variables,
                distinct,
            } => {
                let projected = if variables.is_empty() {
                    query.pattern.variables()
                } else {
                    variables.clone()
                };
                (projected, false, *distinct)
            }
        };

        PhysicalPlan {
            store: self.store,
            vars: Arc::new(vars),
            root: Arc::new(root),
            shared: self.shared.clone(),
            parallel: self.parallel,
            projection,
            is_ask,
            distinct,
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
            text_cap,
            text_slots: slots.text,
            service_slots: slots.service,
            services: self.services,
            summary: OnceLock::new(),
        }
    }

    /// Recursively compile a graph pattern, threading the set of variable
    /// slots that may already be bound by the time rows reach this node
    /// (used for cardinality estimation and filter pushdown).
    fn compile(
        &self,
        pattern: &GraphPattern,
        vars: &VarRegistry,
        bound: &mut HashSet<usize>,
        text_cap: usize,
        slots: &mut SlotCounters,
    ) -> PlanNode {
        match pattern {
            GraphPattern::Bgp(tps) => self.plan_bgp(tps, vars, bound, text_cap, slots),
            GraphPattern::Join(a, b) => {
                let left = self.compile(a, vars, bound, text_cap, slots);
                let right = self.compile(b, vars, bound, text_cap, slots);
                PlanNode::Join(Box::new(left), Box::new(right))
            }
            GraphPattern::Optional(a, b) => {
                let left = self.compile(a, vars, bound, text_cap, slots);
                let right = self.compile(b, vars, bound, text_cap, slots);
                PlanNode::LeftJoin(Box::new(left), Box::new(right))
            }
            GraphPattern::Union(a, b) => {
                let mut bound_a = bound.clone();
                let left = self.compile(a, vars, &mut bound_a, text_cap, slots);
                let mut bound_b = bound.clone();
                let right = self.compile(b, vars, &mut bound_b, text_cap, slots);
                bound.extend(bound_a);
                bound.extend(bound_b);
                PlanNode::Union(Box::new(left), Box::new(right))
            }
            GraphPattern::Filter(inner, expr) => {
                let mut node = self.compile(inner, vars, bound, text_cap, slots);
                match push_filter(&mut node, expr, vars) {
                    true => node,
                    false => PlanNode::Filter(Box::new(node), expr.clone()),
                }
            }
            GraphPattern::Service { kg, pattern } => {
                // The group executes remotely as `SELECT *`; every variable
                // it mentions is bound (or checked) by the merge join.
                let query = Query {
                    form: QueryForm::Select {
                        variables: Vec::new(),
                        distinct: false,
                    },
                    pattern: (**pattern).clone(),
                    limit: None,
                    offset: None,
                };
                let binds: Vec<(String, usize)> = pattern
                    .variables()
                    .into_iter()
                    .filter_map(|v| vars.id_of(&v).map(|slot| (v, slot)))
                    .collect();
                bound.extend(binds.iter().map(|(_, slot)| *slot));
                let cache_slot = slots.service;
                slots.service += 1;
                PlanNode::Service {
                    kg: kg.clone(),
                    query,
                    binds,
                    cache_slot,
                    estimate: SERVICE_ESTIMATE,
                }
            }
        }
    }

    /// Greedily join-order one basic graph pattern.
    fn plan_bgp(
        &self,
        tps: &[TriplePatternAst],
        vars: &VarRegistry,
        bound: &mut HashSet<usize>,
        text_cap: usize,
        slots: &mut SlotCounters,
    ) -> PlanNode {
        struct Candidate {
            kind: StepKind,
            ast: TriplePatternAst,
            /// Variable slots this pattern mentions.
            var_slots: Vec<usize>,
            /// Variable slots this pattern binds when it runs.
            binds: Vec<usize>,
        }

        let mut remaining: Vec<Candidate> = tps
            .iter()
            .map(|tp| {
                let var_slots: Vec<usize> = tp
                    .variables()
                    .iter()
                    .filter_map(|v| vars.id_of(v))
                    .collect();
                if is_text_search_pattern(tp) {
                    // A text probe binds its subject variable; the object is
                    // the query string, the predicate the magic IRI.
                    let binds = tp
                        .subject
                        .as_var()
                        .and_then(|v| vars.id_of(v))
                        .into_iter()
                        .collect();
                    let cache_slot = slots.text;
                    slots.text += 1;
                    Candidate {
                        kind: StepKind::TextSearch {
                            cache_slot,
                            constant_words: constant_text_words(tp),
                        },
                        ast: tp.clone(),
                        var_slots,
                        binds,
                    }
                } else {
                    match compile_triple_pattern(self.store, vars, tp) {
                        Some(compiled) => Candidate {
                            kind: StepKind::Scan(compiled),
                            ast: tp.clone(),
                            binds: var_slots.clone(),
                            var_slots,
                        },
                        None => Candidate {
                            kind: StepKind::NeverMatches,
                            ast: tp.clone(),
                            var_slots,
                            binds: Vec::new(),
                        },
                    }
                }
            })
            .collect();

        let mut steps = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            // Prefer patterns connected to what is already joined (shared
            // variable or no variables at all); fall back to every pattern
            // when nothing connects — the cartesian product is then forced
            // by the query, and we at least start from the cheapest side.
            let connected = |c: &Candidate| {
                c.var_slots.is_empty() || c.var_slots.iter().any(|v| bound.contains(v))
            };
            let any_connected = !steps.is_empty() && remaining.iter().any(connected);
            let pick = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| !any_connected || connected(c))
                .map(|(i, c)| (i, self.estimate(&c.ast, &c.kind, bound, vars, text_cap)))
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("remaining is non-empty");
            let (index, estimate) = pick;
            let candidate = remaining.swap_remove(index);
            bound.extend(candidate.binds.iter().copied());
            steps.push(PlanStep {
                kind: candidate.kind,
                ast: candidate.ast,
                estimate,
                filters: Vec::new(),
                driver: false,
            });
        }
        PlanNode::Bgp {
            pre_filters: Vec::new(),
            steps,
        }
    }

    /// Estimate how many rows one step yields per input row, given which
    /// variable slots are already bound.
    fn estimate(
        &self,
        ast: &TriplePatternAst,
        kind: &StepKind,
        bound: &HashSet<usize>,
        vars: &VarRegistry,
        text_cap: usize,
    ) -> f64 {
        match kind {
            StepKind::NeverMatches => 0.0,
            StepKind::TextSearch { .. } => {
                let subject_bound = match &ast.subject {
                    VarOrTerm::Var(v) => vars.id_of(v).is_some_and(|slot| bound.contains(&slot)),
                    VarOrTerm::Term(_) => true,
                };
                if subject_bound {
                    // Membership test against the match set: ~1 row out per
                    // row in.
                    return 1.0;
                }
                match &ast.object {
                    VarOrTerm::Term(Term::Literal(lit)) => {
                        let words = crate::eval::parse_text_query(&lit.lexical);
                        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                        self.store.text_index().estimate_any(&refs).min(text_cap) as f64
                    }
                    // Query string only known at run time: assume the cap.
                    _ => text_cap.min(self.store.text_index().num_literals()) as f64,
                }
            }
            StepKind::Scan(tp) => {
                let const_of = |slot: Slot| match slot {
                    Slot::Const(id) => Some(id),
                    Slot::Var(_) => None,
                };
                let base = self.store.scan_count(EncodedTriplePattern::new(
                    const_of(tp.subject),
                    const_of(tp.predicate),
                    const_of(tp.object),
                )) as f64;
                if base == 0.0 {
                    return 0.0;
                }
                // Positions held by an already-joined variable divide the
                // constant-match count by the relevant distinct count: with
                // a constant predicate that is the predicate's own distinct
                // subject/object count (average out-/in-degree), otherwise
                // the graph-wide distinct counts.
                let pred_card = match tp.predicate {
                    Slot::Const(p) => self.stats.predicate(p).copied(),
                    Slot::Var(_) => None,
                };
                let mut est = base;
                if let Slot::Var(v) = tp.subject {
                    if bound.contains(&v) {
                        let distinct = pred_card
                            .map(|c| c.distinct_subjects)
                            .unwrap_or(self.stats.distinct_subjects);
                        est /= distinct.max(1) as f64;
                    }
                }
                if let Slot::Var(v) = tp.predicate {
                    if bound.contains(&v) {
                        est /= self.stats.distinct_predicates.max(1) as f64;
                    }
                }
                if let Slot::Var(v) = tp.object {
                    if bound.contains(&v) {
                        let distinct = pred_card
                            .map(|c| c.distinct_objects)
                            .unwrap_or(self.stats.distinct_objects);
                        est /= distinct.max(1) as f64;
                    }
                }
                est
            }
        }
    }
}

/// Try to push a filter into a BGP node: attach it after the last step that
/// binds any of the filter's variables, or to the pre-filter list when the
/// BGP's steps bind none of them (the filter then only depends on input
/// bindings, which no step can change).  Returns `false` if the node is not
/// a BGP — the caller keeps the filter as a residual operator.
fn push_filter(node: &mut PlanNode, expr: &Expression, vars: &VarRegistry) -> bool {
    let PlanNode::Bgp {
        pre_filters, steps, ..
    } = node
    else {
        return false;
    };
    let filter_slots: Vec<usize> = expr
        .variables()
        .iter()
        .filter_map(|v| vars.id_of(v))
        .collect();
    let step_binds = |step: &PlanStep| -> Vec<usize> {
        match &step.kind {
            StepKind::Scan(_) => step
                .ast
                .variables()
                .iter()
                .filter_map(|v| vars.id_of(v))
                .collect(),
            StepKind::TextSearch { .. } => step
                .ast
                .subject
                .as_var()
                .and_then(|v| vars.id_of(v))
                .into_iter()
                .collect(),
            StepKind::NeverMatches => Vec::new(),
        }
    };
    let position = steps
        .iter()
        .enumerate()
        .filter(|(_, step)| step_binds(step).iter().any(|v| filter_slots.contains(v)))
        .map(|(i, _)| i)
        .next_back();
    match position {
        Some(i) => steps[i].filters.push(expr.clone()),
        None => pre_filters.push(expr.clone()),
    }
    true
}

/// Mark the plan's driver scan (see [`PlanStep::driver`]): the first step
/// of the leftmost BGP, reached by walking left through joins and filters.
/// Union branches and SERVICE groups re-evaluate per input row, so nothing
/// inside them can drive a partitioned scan.
fn mark_driver(node: &mut PlanNode) {
    match node {
        PlanNode::Bgp { steps, .. } => {
            if let Some(step) = steps.first_mut() {
                if matches!(step.kind, StepKind::Scan(_)) {
                    step.driver = true;
                }
            }
        }
        PlanNode::Join(a, _) | PlanNode::LeftJoin(a, _) => mark_driver(a),
        PlanNode::Filter(inner, _) => mark_driver(inner),
        PlanNode::Union(..) | PlanNode::Service { .. } => {}
    }
}

/// The marked driver step, if the plan has one (mirrors [`mark_driver`]).
fn find_driver(node: &PlanNode) -> Option<&PlanStep> {
    match node {
        PlanNode::Bgp { steps, .. } => steps.first().filter(|step| step.driver),
        PlanNode::Join(a, _) | PlanNode::LeftJoin(a, _) => find_driver(a),
        PlanNode::Filter(inner, _) => find_driver(inner),
        PlanNode::Union(..) | PlanNode::Service { .. } => None,
    }
}

/// Does any node of the tree call out to a remote KG?  SERVICE resolvers
/// are borrowed (`&dyn`) and their term interner is single-threaded, so
/// federated plans always run as one morsel on the caller's thread.
fn plan_has_service(node: &PlanNode) -> bool {
    match node {
        PlanNode::Bgp { .. } => false,
        PlanNode::Join(a, b) | PlanNode::LeftJoin(a, b) | PlanNode::Union(a, b) => {
            plan_has_service(a) || plan_has_service(b)
        }
        PlanNode::Filter(inner, _) => plan_has_service(inner),
        PlanNode::Service { .. } => true,
    }
}

// ---------------------------------------------------------------------------
// Execution: a lazy iterator pipeline over id rows.
// ---------------------------------------------------------------------------

/// The item flowing through the pipeline: a row, or an evaluation error to
/// propagate to the caller.
type RowResult = Result<IdRow, SparqlError>;

/// A boxed lazy row stream.
type RowIter<'a> = Box<dyn Iterator<Item = RowResult> + 'a>;

/// Shared per-run context, `Copy` so the iterator closures can capture it by
/// value.
#[derive(Clone, Copy)]
struct ExecCtx<'a> {
    store: &'a Store,
    vars: &'a VarRegistry,
    text_cap: usize,
    run: &'a RunState,
    /// Resolver for SERVICE groups; `None` outside federated plans.
    services: Option<&'a dyn ServiceResolver>,
    /// The driver clip: when set, the driver scan is clipped to this
    /// morsel's key range and every other operator runs unchanged.  `None`
    /// runs the whole driver scan (the single morsel of an unpartitioned
    /// run).
    morsel: Option<PartitionRange>,
}

/// The mutable state of one run (of one morsel, in a parallel run).
struct RunState {
    scanned: Cell<u64>,
    /// One lazily-filled match-set slot per constant-string text step of
    /// the plan, shared across the whole run.
    text_cache: Vec<OnceCell<TextMatches>>,
    /// One lazily-filled remote-result slot per SERVICE group of the plan:
    /// the remote query runs once per run, however many input rows the
    /// pipeline pushes through the join.
    service_cache: Vec<OnceCell<Result<Vec<ServiceRow>, SparqlError>>>,
    /// Run-scoped side dictionary for remote terms.
    foreign: ForeignTerms,
}

impl RunState {
    fn new(text_slots: usize, service_slots: usize) -> Self {
        RunState {
            scanned: Cell::new(0),
            text_cache: (0..text_slots).map(|_| OnceCell::new()).collect(),
            service_cache: (0..service_slots).map(|_| OnceCell::new()).collect(),
            foreign: ForeignTerms::default(),
        }
    }

    fn add_scanned(&self, rows: u64) {
        self.scanned.set(self.scanned.get() + rows);
    }
}

/// What the per-range evaluator keeps of the rows it pulls.
struct RangeSpec {
    /// Projection: variable slot per output column.
    slots: Vec<Option<usize>>,
    distinct: bool,
    /// `offset + limit` when the query pages: no range can contribute more
    /// than the whole page, so each stops pulling after this many (distinct,
    /// when applicable) projected rows.
    cap: Option<usize>,
    deadline: Option<Instant>,
}

/// One evaluated range: its projected rows in scan order, the index entries
/// it touched, and whether the deadline cut it short (its rows are then a
/// prefix of the range's output).
struct RangeOutput {
    rows: Vec<IdRow>,
    scanned: u64,
    cut_short: bool,
}

/// A morsel's slot in the ordered merge: `None` when it never ran.
type MorselOutput = Option<Result<RangeOutput, SparqlError>>;

impl<'a> ExecCtx<'a> {
    /// The per-range evaluator every run goes through: evaluate `root` with
    /// the driver scan clipped to this context's morsel, keeping the
    /// projected rows `spec` asks for.  The page cap is checked before every
    /// pull, so a full page stops the scans.
    fn eval_range(self, root: &'a PlanNode, spec: &RangeSpec) -> Result<RangeOutput, SparqlError> {
        let seed: IdRow = vec![None; self.vars.len()];
        let mut rows = self.eval_node(root, Box::new(std::iter::once(Ok(seed))));
        // Range-local dedup is sound under a global cap: a row past a
        // range's first `cap` distinct values has at least `cap` distinct
        // predecessors in the concatenated stream, so it cannot be in the
        // global first `cap` either.  (The merge dedups across ranges.)
        let mut seen = spec.distinct.then(HashSet::new);
        let mut out: Vec<IdRow> = Vec::new();
        let mut cut_short = false;
        let mut pulled: u64 = 0;
        loop {
            if spec.cap.is_some_and(|cap| out.len() >= cap) {
                break;
            }
            // A clock read per row would dominate cheap scans, so the check
            // runs every 256 pulls; the deadline-free path pays a branch.
            if let Some(deadline) = spec.deadline {
                if pulled.is_multiple_of(256) && Instant::now() >= deadline {
                    cut_short = true;
                    break;
                }
                pulled += 1;
            }
            let Some(res) = rows.next() else {
                break;
            };
            let row = res?;
            let projected: IdRow = spec
                .slots
                .iter()
                .map(|slot| slot.and_then(|i| row[i]))
                .collect();
            if let Some(seen) = &mut seen {
                if !seen.insert(projected.clone()) {
                    continue;
                }
            }
            out.push(projected);
        }
        Ok(RangeOutput {
            rows: out,
            scanned: self.run.scanned.get(),
            cut_short,
        })
    }

    fn eval_node(self, node: &'a PlanNode, input: RowIter<'a>) -> RowIter<'a> {
        match node {
            PlanNode::Bgp {
                pre_filters, steps, ..
            } => {
                let mut current = input;
                if !pre_filters.is_empty() {
                    current = self.filter_rows(current, pre_filters);
                }
                for step in steps {
                    current = self.eval_step(step, current);
                }
                current
            }
            PlanNode::Join(a, b) => {
                let left = self.eval_node(a, input);
                self.eval_node(b, left)
            }
            // The right side runs once per left row, so constructing a fresh
            // boxed iterator chain each time would dominate; a BGP right
            // side (every KGQAn candidate's OPTIONAL rdf:type clause) is
            // evaluated with direct loops instead.
            PlanNode::LeftJoin(a, b) => {
                let left = self.eval_node(a, input);
                Box::new(left.flat_map(move |res| -> RowIter<'a> {
                    let row = match res {
                        Ok(row) => row,
                        Err(e) => return Box::new(std::iter::once(Err(e))),
                    };
                    if let PlanNode::Bgp { pre_filters, steps } = &**b {
                        return match self.eval_bgp_rows(pre_filters, steps, &row) {
                            Err(e) => Box::new(std::iter::once(Err(e))),
                            Ok(extended) if extended.is_empty() => {
                                Box::new(std::iter::once(Ok(row)))
                            }
                            Ok(extended) => Box::new(extended.into_iter().map(Ok)),
                        };
                    }
                    let extended = self.eval_node(b, Box::new(std::iter::once(Ok(row.clone()))));
                    let mut peeked = extended.peekable();
                    if peeked.peek().is_none() {
                        Box::new(std::iter::once(Ok(row)))
                    } else {
                        Box::new(peeked)
                    }
                }))
            }
            PlanNode::Union(a, b) => Box::new(input.flat_map(move |res| -> RowIter<'a> {
                let row = match res {
                    Ok(row) => row,
                    Err(e) => return Box::new(std::iter::once(Err(e))),
                };
                let left = self.eval_node(a, Box::new(std::iter::once(Ok(row.clone()))));
                let right = self.eval_node(b, Box::new(std::iter::once(Ok(row))));
                Box::new(left.chain(right))
            })),
            PlanNode::Filter(inner, expr) => {
                let rows = self.eval_node(inner, input);
                self.filter_rows(rows, std::slice::from_ref(expr))
            }
            PlanNode::Service {
                kg,
                query,
                binds,
                cache_slot,
                ..
            } => {
                let cache_slot = *cache_slot;
                Box::new(input.flat_map(move |res| -> RowIter<'a> {
                    let row = match res {
                        Ok(row) => row,
                        Err(e) => return Box::new(std::iter::once(Err(e))),
                    };
                    let remote = self.run.service_cache[cache_slot]
                        .get_or_init(|| self.fetch_service(kg, query, binds));
                    match remote {
                        Err(e) => Box::new(std::iter::once(Err(e.clone()))),
                        Ok(remote_rows) => {
                            let joined: Vec<RowResult> = remote_rows
                                .iter()
                                .filter_map(|ext| merge_service_row(&row, ext))
                                .map(Ok)
                                .collect();
                            Box::new(joined.into_iter())
                        }
                    }
                }))
            }
        }
    }

    /// Run one SERVICE group's query against the remote KG and project each
    /// remote solution onto local variable slots, id-interned through the
    /// run's [`ForeignTerms`] table.  Remote rows count as scanned work.
    fn fetch_service(
        self,
        kg: &str,
        query: &Query,
        binds: &[(String, usize)],
    ) -> Result<Vec<ServiceRow>, SparqlError> {
        let Some(services) = self.services else {
            return Err(SparqlError::Service {
                kg: kg.to_string(),
                message: "no service resolver installed (plan with Planner::with_services)"
                    .to_string(),
            });
        };
        let results = services.execute_service(kg, query)?;
        let rows = results.rows();
        self.run.add_scanned(rows.len() as u64);
        Ok(rows
            .iter()
            .map(|binding| {
                binds
                    .iter()
                    .filter_map(|(var, slot)| {
                        binding
                            .get(var)
                            .map(|term| (*slot, self.run.foreign.intern(self.store, term)))
                    })
                    .collect()
            })
            .collect())
    }

    fn eval_step(self, step: &'a PlanStep, input: RowIter<'a>) -> RowIter<'a> {
        let extended: RowIter<'a> = match &step.kind {
            // A constant absent from the dictionary matches nothing,
            // whatever the input.
            StepKind::NeverMatches => Box::new(std::iter::empty()),
            StepKind::Scan(tp) => {
                let tp = *tp;
                let clip = if step.driver { self.morsel } else { None };
                Box::new(input.flat_map(move |res| -> RowIter<'a> {
                    match res {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(row) => Box::new(self.scan_extensions(tp, clip, row).map(Ok)),
                    }
                }))
            }
            StepKind::TextSearch {
                cache_slot,
                constant_words,
            } => {
                let ast = &step.ast;
                let cache_slot = *cache_slot;
                // A constant query string is row-independent: run the search
                // once per *run* and reuse the match set — the cache lives
                // on the execution, so OPTIONAL/UNION re-building this
                // pipeline per input row still share it.  (The planner costs
                // a bound-subject text step at ~1 row on this assumption.)
                Box::new(input.flat_map(move |res| -> RowIter<'a> {
                    let row = match res {
                        Ok(row) => row,
                        Err(e) => return Box::new(std::iter::once(Err(e))),
                    };
                    if let Some(words) = constant_words {
                        let matches =
                            self.run.text_cache[cache_slot].get_or_init(|| self.search_text(words));
                        return Box::new(
                            self.text_row_extensions(ast, row, matches)
                                .into_iter()
                                .map(Ok),
                        );
                    }
                    match text_query_words(self.store, self.vars, ast, &row) {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(words) => {
                            let matches = self.search_text(&words);
                            Box::new(
                                self.text_row_extensions(ast, row, &matches)
                                    .into_iter()
                                    .map(Ok),
                            )
                        }
                    }
                }))
            }
        };
        if step.filters.is_empty() {
            extended
        } else {
            self.filter_rows(extended, &step.filters)
        }
    }

    /// All extensions of one row by one compiled scan pattern — the
    /// innermost join loop, shared by the streaming and materialising
    /// paths.
    fn scan_extensions(
        self,
        tp: CompiledTriplePattern,
        clip: Option<PartitionRange>,
        row: IdRow,
    ) -> impl Iterator<Item = IdRow> + 'a {
        let resolve = |slot: Slot| -> Option<TermId> {
            match slot {
                Slot::Const(id) => Some(id),
                Slot::Var(v) => row[v],
            }
        };
        let pattern = EncodedTriplePattern::new(
            resolve(tp.subject),
            resolve(tp.predicate),
            resolve(tp.object),
        );
        let scan = match clip {
            // The driver scan of one morsel: same pattern, same ordering,
            // restricted to the morsel's key range.
            Some(range) => MorselScan::Clipped(self.store.scan_within(pattern, range)),
            None => MorselScan::Full(self.store.scan(pattern)),
        };
        scan.filter_map(move |triple| {
            self.run.add_scanned(1);
            extend_row(&row, tp, triple)
        })
    }

    /// Evaluate a BGP's planned steps for one input row with plain loops,
    /// materialising the result rows.  Used where the caller materialises
    /// anyway (the per-left-row right side of a left join): it skips the
    /// per-row construction of a boxed iterator chain.
    fn eval_bgp_rows(
        self,
        pre_filters: &[Expression],
        steps: &[PlanStep],
        row: &IdRow,
    ) -> Result<Vec<IdRow>, SparqlError> {
        for expr in pre_filters {
            let keep = eval_expression(self.store, self.vars, expr, row)?
                .map(term_truthiness)
                .unwrap_or(false);
            if !keep {
                return Ok(Vec::new());
            }
        }
        let mut current = vec![row.clone()];
        for step in steps {
            let mut next = Vec::new();
            match &step.kind {
                StepKind::NeverMatches => {}
                StepKind::Scan(tp) => {
                    for row in &current {
                        // Never the driver: this path only serves the right
                        // side of a left join, which `mark_driver` skips.
                        next.extend(self.scan_extensions(*tp, None, row.clone()));
                    }
                }
                StepKind::TextSearch {
                    cache_slot,
                    constant_words,
                } => {
                    for row in current {
                        match constant_words {
                            Some(words) => {
                                let matches = self.run.text_cache[*cache_slot]
                                    .get_or_init(|| self.search_text(words));
                                next.extend(self.text_row_extensions(&step.ast, row, matches));
                            }
                            None => {
                                let words =
                                    text_query_words(self.store, self.vars, &step.ast, &row)?;
                                let matches = self.search_text(&words);
                                next.extend(self.text_row_extensions(&step.ast, row, &matches));
                            }
                        }
                    }
                }
            }
            for expr in &step.filters {
                let mut filtered = Vec::with_capacity(next.len());
                for row in next {
                    if eval_expression(self.store, self.vars, expr, &row)?
                        .map(term_truthiness)
                        .unwrap_or(false)
                    {
                        filtered.push(row);
                    }
                }
                next = filtered;
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Ok(current)
    }

    /// Run one text search, reporting the matches it inspected to the scan
    /// counter and building the membership set used for bound subjects.
    fn search_text(self, words: &[String]) -> TextMatches {
        let word_refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let matches = self
            .store
            .text_index()
            .search_any(&word_refs, self.text_cap);
        self.run.add_scanned(matches.len() as u64);
        let literals = matches.iter().map(|m| m.literal).collect();
        TextMatches { matches, literals }
    }

    /// All extensions of one row by one text-search pattern over an
    /// already-computed match set (mirrors the naive evaluator's
    /// `extend_with_text_search`).  An already-bound subject is a set
    /// membership test, not a walk of the match list.
    fn text_row_extensions(
        self,
        tp: &TriplePatternAst,
        row: IdRow,
        matches: &TextMatches,
    ) -> Vec<IdRow> {
        let mut out = Vec::new();
        match &tp.subject {
            VarOrTerm::Var(var) => {
                let slot = self
                    .vars
                    .id_of(var)
                    .expect("pattern variables are all registered");
                match row[slot] {
                    Some(existing) => {
                        if matches.literals.contains(&existing) {
                            out.push(row);
                        }
                    }
                    None => {
                        for m in &matches.matches {
                            let mut extended = row.clone();
                            extended[slot] = Some(m.literal);
                            out.push(extended);
                        }
                    }
                }
            }
            VarOrTerm::Term(term) => {
                // Bound subject: keep the row iff that literal matches.
                let keeps = self
                    .store
                    .id_of(term)
                    .is_some_and(|id| matches.literals.contains(&id));
                if keeps {
                    out.push(row);
                }
            }
        }
        out
    }

    fn filter_rows(self, input: RowIter<'a>, exprs: &'a [Expression]) -> RowIter<'a> {
        Box::new(input.filter_map(move |res| -> Option<RowResult> {
            let row = match res {
                Ok(row) => row,
                Err(e) => return Some(Err(e)),
            };
            for expr in exprs {
                match eval_expression(self.store, self.vars, expr, &row) {
                    Err(e) => return Some(Err(e)),
                    Ok(value) => {
                        if !value.map(term_truthiness).unwrap_or(false) {
                            return None;
                        }
                    }
                }
            }
            Some(Ok(row))
        }))
    }
}

/// The match set of one text-search step: the ranked matches (for
/// generatively binding an unbound subject) plus a membership set (for
/// subjects already bound by an earlier step).
struct TextMatches {
    matches: Vec<TextMatch>,
    literals: HashSet<TermId>,
}

/// The two shapes of the innermost scan loop: a full index scan (every
/// non-driver step, and the driver of an unpartitioned run) or the driver
/// scan clipped to one morsel's key range.  An enum (rather than a boxed
/// iterator) keeps the innermost loop free of virtual dispatch.
enum MorselScan<A, B> {
    Full(A),
    Clipped(B),
}

impl<T, A, B> Iterator for MorselScan<A, B>
where
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            MorselScan::Full(scan) => scan.next(),
            MorselScan::Clipped(scan) => scan.next(),
        }
    }
}

/// The search words of a text pattern whose query string is a constant
/// literal — row-independent, so the search can run once per step.
/// `None` when the string comes from a variable binding (resolved per row).
fn constant_text_words(tp: &TriplePatternAst) -> Option<Vec<String>> {
    match &tp.object {
        VarOrTerm::Term(Term::Literal(lit)) => Some(parse_text_query(&lit.lexical)),
        _ => None,
    }
}

/// Extend one id row with one matched triple, or `None` when a repeated
/// variable matched two different ids.
fn extend_row(row: &IdRow, tp: CompiledTriplePattern, triple: EncodedTriple) -> Option<IdRow> {
    let mut extended = row.clone();
    for (slot, id) in [
        (tp.subject, triple.subject),
        (tp.predicate, triple.predicate),
        (tp.object, triple.object),
    ] {
        if let Slot::Var(v) = slot {
            match extended[v] {
                Some(existing) if existing != id => return None,
                _ => extended[v] = Some(id),
            }
        }
    }
    Some(extended)
}

/// Merge one remote SERVICE row into an input row, or `None` when a shared
/// variable is bound to a different term on the two sides (the rows do not
/// join).
fn merge_service_row(row: &IdRow, ext: &[(usize, TermId)]) -> Option<IdRow> {
    let mut extended = row.clone();
    for &(slot, id) in ext {
        match extended[slot] {
            Some(existing) if existing != id => return None,
            _ => extended[slot] = Some(id),
        }
    }
    Some(extended)
}

impl<'s> PhysicalPlan<'s> {
    /// The `EXPLAIN` summary of this plan (rendered on first call).
    pub fn summary(&self) -> &PlanSummary {
        self.summary.get_or_init(|| self.build_summary())
    }

    /// Run the plan to completion, streaming rows through the operator
    /// pipeline.  `LIMIT`/`OFFSET`/`DISTINCT` (and ASK's one-row need) stop
    /// the scans as soon as the output is decided.
    pub fn execute(&self) -> Result<PlannedExecution, SparqlError> {
        self.execute_with(ExecOptions::default())
    }

    /// [`PhysicalPlan::execute`] with per-run knobs (currently: a
    /// deadline).
    ///
    /// Every run takes one path: its driver scan is split into morsels,
    /// each evaluated by the same per-range evaluator, then one ordered
    /// merge applies `DISTINCT`/`OFFSET`/`LIMIT` in partition order and the
    /// page is decoded once.  A plan that is not parallel-eligible (see
    /// [`ParallelConfig`]) is one unclipped morsel on the caller's thread,
    /// streaming until its page is full; an eligible plan spreads its
    /// morsels over the shared [`ExecutorPool`] with byte-identical results.
    pub fn execute_with(&self, opts: ExecOptions) -> Result<PlannedExecution, SparqlError> {
        // An ASK needs one row; an empty page needs none, whatever the offset.
        let (offset, limit) = match self.limit {
            _ if self.is_ask => (0, Some(1)),
            Some(0) => (0, Some(0)),
            limit => (self.offset, limit),
        };
        let spec = RangeSpec {
            slots: self.projection.iter().map(|v| self.vars.id_of(v)).collect(),
            distinct: self.distinct,
            cap: limit.map(|limit| offset.saturating_add(limit)),
            deadline: opts.deadline.filter(|_| !self.is_ask),
        };
        let run = RunState::new(self.text_slots, self.service_slots);
        let (outputs, parallel) = match self.parallel_decision() {
            Some(decision) => self.run_morsels(decision, spec),
            None => {
                let ctx = ExecCtx {
                    store: self.store,
                    vars: &self.vars,
                    text_cap: self.text_cap,
                    run: &run,
                    services: self.services,
                    morsel: None,
                };
                (vec![Some(ctx.eval_range(&self.root, &spec))], None)
            }
        };
        let rows_scanned = outputs.iter().flatten().flatten().map(|o| o.scanned).sum();
        let (id_rows, deadline_exceeded) =
            merge_in_order(outputs.into_iter(), self.distinct, offset, limit)?;

        let results = if self.is_ask {
            QueryResults::Boolean(!id_rows.is_empty())
        } else {
            let bindings = id_rows
                .iter()
                .map(|row| run.foreign.decode_row(self.store, &self.projection, row))
                .collect();
            QueryResults::Solutions(ResultSet::new(self.projection.clone(), bindings))
        };
        Ok(PlannedExecution {
            results,
            metrics: ExecMetrics {
                rows_scanned,
                rows_emitted: id_rows.len() as u64,
                deadline_exceeded,
                parallel,
            },
        })
    }

    /// Decide whether (and how) this plan runs in parallel.  Returns `None`
    /// (one unclipped morsel on the caller's thread) unless *all* of these
    /// hold: a parallelism config and an owned snapshot are installed, the
    /// query is not an ASK and touches no SERVICE group, a driver scan
    /// exists, its cardinality estimate asks for at least two workers, any
    /// `LIMIT`/`OFFSET` page is big enough to be worth full scans, and the
    /// driver actually splits into more than one partition.
    fn parallel_decision(&self) -> Option<ParallelDecision> {
        let config = self.parallel?;
        self.shared.as_ref()?;
        if self.is_ask || config.max_dop < 2 || plan_has_service(&self.root) {
            return None;
        }
        let driver = find_driver(&self.root)?;
        let StepKind::Scan(tp) = &driver.kind else {
            return None;
        };
        if let Some(limit) = self.limit {
            if self.offset + limit < config.min_page_rows {
                return None;
            }
        }
        let dop =
            ((driver.estimate / config.rows_per_worker.max(1.0)) as usize).clamp(1, config.max_dop);
        if dop < 2 {
            return None;
        }
        // The driver's input is always the single all-unbound seed row, so
        // its runtime pattern is exactly its compiled constants.
        let const_of = |slot: Slot| match slot {
            Slot::Const(id) => Some(id),
            Slot::Var(_) => None,
        };
        let pattern = EncodedTriplePattern::new(
            const_of(tp.subject),
            const_of(tp.predicate),
            const_of(tp.object),
        );
        let ranges = self
            .store
            .scan_partitions(pattern, dop * config.morsels_per_worker.max(1));
        if ranges.len() < 2 {
            return None;
        }
        Some(ParallelDecision { dop, ranges })
    }

    /// Run a partitioned plan's morsels on the shared pool.
    ///
    /// The coordinating thread submits up to `dop - 1` helper jobs to the
    /// shared pool and then drains morsels itself, so the run makes
    /// progress even when the pool has no free slot (saturation degrades
    /// parallelism, never correctness).  Workers claim morsels from a
    /// shared counter — partition order — and each morsel's output lands in
    /// its own slot, returned in partition order.
    fn run_morsels(
        &self,
        decision: ParallelDecision,
        spec: RangeSpec,
    ) -> (Vec<MorselOutput>, Option<ParallelMetrics>) {
        let morsels = decision.ranges.len();
        let state = Arc::new(MorselRun {
            snapshot: Arc::clone(self.shared.as_ref().expect("checked by parallel_decision")),
            root: Arc::clone(&self.root),
            vars: Arc::clone(&self.vars),
            text_cap: self.text_cap,
            text_slots: self.text_slots,
            spec,
            ranges: decision.ranges,
            next: AtomicUsize::new(0),
            outputs: (0..morsels).map(|_| Mutex::new(None)).collect(),
            expired: AtomicBool::new(false),
        });
        exec::record_parallel_query();

        let pool = ExecutorPool::shared();
        let mut tickets = Vec::with_capacity(decision.dop - 1);
        for _ in 1..decision.dop {
            let job = Arc::clone(&state);
            match pool.try_submit(move || job.drain()) {
                Ok(ticket) => tickets.push(ticket),
                // Pool saturated or shutting down: run with fewer helpers.
                Err(_) => break,
            }
        }
        let mut rows_scanned_per_worker = vec![state.drain()];
        for ticket in tickets {
            // `None` = the helper panicked; its claimed morsel is refilled
            // below, so the run still completes.
            if let Some(scanned) = ticket.wait() {
                rows_scanned_per_worker.push(scanned);
            }
        }
        // Refill any hole that is not a deadline hole (a panicked helper's
        // claimed-but-unfinished morsel) on the coordinating thread.
        if !state.expired.load(Ordering::Relaxed) {
            for index in 0..morsels {
                let missing = state.lock_output(index).is_none();
                if missing {
                    let output = state.run_morsel(index);
                    rows_scanned_per_worker[0] += output.as_ref().map_or(0, |o| o.scanned);
                    *state.lock_output(index) = Some(output);
                }
            }
        }
        let outputs = (0..morsels)
            .map(|index| state.lock_output(index).take())
            .collect();
        let metrics = ParallelMetrics {
            dop: rows_scanned_per_worker.len(),
            morsels,
            rows_scanned_per_worker,
        };
        (outputs, Some(metrics))
    }

    /// Flatten the operator tree into the rendered summary.
    fn build_summary(&self) -> PlanSummary {
        let mut summary = PlanSummary::default();
        let mut header = if self.is_ask {
            "ask".to_string()
        } else {
            let vars: Vec<String> = self.projection.iter().map(|v| format!("?{v}")).collect();
            format!("select {}", vars.join(" "))
        };
        if self.distinct {
            header.push_str(" distinct");
        }
        if let Some(limit) = self.limit {
            header.push_str(&format!(" limit {limit}"));
        }
        if self.offset > 0 {
            header.push_str(&format!(" offset {}", self.offset));
        }
        summary.push(0, header, None);
        // Surface the parallel decision the executor will actually take —
        // `EXPLAIN` and `execute` call the same `parallel_decision`.
        match self.parallel_decision() {
            Some(decision) => {
                summary.push(
                    1,
                    format!("parallel({})", decision.dop),
                    Some(decision.ranges.len() as f64),
                );
                summarize_node(&self.root, 2, Some(decision.ranges.len()), &mut summary);
            }
            None => summarize_node(&self.root, 1, None, &mut summary),
        }
        summary
    }
}

/// How a parallel run splits its driver scan: the chosen degree of
/// parallelism and the morsel key ranges, in scan order.
struct ParallelDecision {
    dop: usize,
    ranges: Vec<PartitionRange>,
}

/// The one ordered merge: walk the range outputs in partition order and
/// apply `DISTINCT`, then `OFFSET`, then `LIMIT`, which caps what each range
/// may add.  The walk ends at the first missing range, or after the rows of
/// the first cut-short one, and then reports the page as deadline-cut.
fn merge_in_order(
    outputs: impl ExactSizeIterator<Item = MorselOutput>,
    distinct: bool,
    offset: usize,
    limit: Option<usize>,
) -> Result<(Vec<IdRow>, bool), SparqlError> {
    // A single range was already deduplicated by its evaluator.
    let mut seen = (distinct && outputs.len() > 1).then(HashSet::new);
    let mut to_skip = offset;
    let mut rows: Vec<IdRow> = Vec::new();
    for output in outputs {
        let room = limit.map_or(usize::MAX, |limit| limit - rows.len());
        if room == 0 {
            break;
        }
        let Some(output) = output else {
            return Ok((rows, true));
        };
        let mut output = output?;
        if let Some(seen) = &mut seen {
            output.rows.retain(|row| seen.insert(row.clone()));
        }
        let skipped = to_skip.min(output.rows.len());
        to_skip -= skipped;
        output.rows.drain(..skipped);
        output.rows.truncate(room);
        if rows.is_empty() {
            rows = output.rows;
        } else {
            rows.append(&mut output.rows);
        }
        if output.cut_short {
            let cut = limit.is_none_or(|limit| rows.len() < limit);
            return Ok((rows, cut));
        }
    }
    Ok((rows, false))
}

/// The `'static` state of one morsel-parallel run.  Everything is owned
/// (`Arc`s into the pinned snapshot and the plan tree), so the same value
/// serves the coordinating thread and the helper jobs on the executor pool.
struct MorselRun {
    snapshot: Arc<StoreSnapshot>,
    root: Arc<PlanNode>,
    vars: Arc<VarRegistry>,
    text_cap: usize,
    text_slots: usize,
    spec: RangeSpec,
    ranges: Vec<PartitionRange>,
    /// Next unclaimed morsel index — the work-stealing cursor.
    next: AtomicUsize,
    /// One slot per morsel, written by whichever worker ran it.
    outputs: Vec<Mutex<MorselOutput>>,
    /// Latched once any worker observes the deadline passed; stops all
    /// further morsel claims.
    expired: AtomicBool,
}

impl MorselRun {
    fn lock_output(&self, index: usize) -> std::sync::MutexGuard<'_, MorselOutput> {
        self.outputs[index]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The deadline check every worker runs *between* morsels.
    fn expired_now(&self) -> bool {
        let Some(deadline) = self.spec.deadline else {
            return false;
        };
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Claim and run morsels until none are left (or the deadline passes).
    /// Returns the rows this worker scanned, for per-worker metrics.
    fn drain(&self) -> u64 {
        let mut scanned = 0u64;
        loop {
            if self.expired_now() {
                break;
            }
            let index = self.next.fetch_add(1, Ordering::SeqCst);
            if index >= self.ranges.len() {
                break;
            }
            let output = self.run_morsel(index);
            scanned += output.as_ref().map_or(0, |o| o.scanned);
            if matches!(&output, Ok(output) if output.cut_short) {
                self.expired.store(true, Ordering::Relaxed);
            }
            *self.lock_output(index) = Some(output);
        }
        scanned
    }

    /// Evaluate one morsel on the calling thread.  Parallel-eligible plans
    /// never contain SERVICE groups, so the morsel needs no resolver.
    fn run_morsel(&self, index: usize) -> Result<RangeOutput, SparqlError> {
        let run = RunState::new(self.text_slots, 0);
        let ctx = ExecCtx {
            store: &self.snapshot,
            vars: &self.vars,
            text_cap: self.text_cap,
            run: &run,
            services: None,
            morsel: Some(self.ranges[index]),
        };
        ctx.eval_range(&self.root, &self.spec)
    }
}

/// Render one node.  `partition` carries the morsel count of a parallel
/// run down the left spine so the driver scan can show a `partition` child
/// op; it is `None` everywhere a driver cannot live.
fn summarize_node(node: &PlanNode, depth: usize, partition: Option<usize>, out: &mut PlanSummary) {
    match node {
        PlanNode::Bgp { pre_filters, steps } => {
            out.push(depth, "bgp", None);
            for expr in pre_filters {
                out.push(depth + 1, format!("filter {expr}"), None);
            }
            for step in steps {
                let label = match &step.kind {
                    StepKind::Scan(_) => format!("scan {}", step.ast),
                    StepKind::TextSearch { .. } => format!("text {}", step.ast),
                    StepKind::NeverMatches => format!("never-matches {}", step.ast),
                };
                out.push(depth + 1, label, Some(step.estimate));
                if step.driver {
                    if let Some(morsels) = partition {
                        out.push(depth + 2, format!("partition ({morsels} morsels)"), None);
                    }
                }
                for expr in &step.filters {
                    out.push(depth + 2, format!("filter {expr}"), None);
                }
            }
        }
        PlanNode::Join(a, b) => {
            out.push(depth, "join", None);
            summarize_node(a, depth + 1, partition, out);
            summarize_node(b, depth + 1, None, out);
        }
        PlanNode::LeftJoin(a, b) => {
            out.push(depth, "left-join (optional)", None);
            summarize_node(a, depth + 1, partition, out);
            summarize_node(b, depth + 1, None, out);
        }
        PlanNode::Union(a, b) => {
            out.push(depth, "union", None);
            summarize_node(a, depth + 1, None, out);
            summarize_node(b, depth + 1, None, out);
        }
        PlanNode::Filter(inner, expr) => {
            out.push(depth, format!("filter {expr}"), None);
            summarize_node(inner, depth + 1, partition, out);
        }
        PlanNode::Service {
            kg,
            query,
            estimate,
            ..
        } => {
            out.push(depth, format!("service <kg:{kg}>"), Some(*estimate));
            for tp in query.pattern.all_triple_patterns() {
                out.push(depth + 1, format!("remote {tp}"), None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use kgqan_rdf::{vocab, LiveStore, Triple};

    /// A store where join order matters: 200 people born in 4 cities, one
    /// person also a member of a tiny club.
    fn skewed_store() -> Store {
        let mut store = Store::new();
        let born = Term::iri("http://e/bornIn");
        let member = Term::iri("http://e/memberOf");
        let label = Term::iri(vocab::RDFS_LABEL);
        for i in 0..200 {
            let person = Term::iri(format!("http://e/person{i}"));
            let city = Term::iri(format!("http://e/city{}", i % 4));
            store.insert(Triple::new(person.clone(), born.clone(), city));
            store.insert(Triple::new(
                person,
                label.clone(),
                Term::literal_str(format!("person number {i}")),
            ));
        }
        store.insert(Triple::new(
            Term::iri("http://e/person7"),
            member,
            Term::iri("http://e/club"),
        ));
        store
    }

    #[test]
    fn planner_orders_selective_pattern_first() {
        let store = skewed_store();
        // Written worst-first: the 200-row bornIn scan before the 1-row
        // memberOf lookup.
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
             ?p <http://e/memberOf> <http://e/club> . }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert_eq!(labels.len(), 2);
        assert!(
            labels[0].contains("memberOf"),
            "selective pattern must run first:\n{}",
            plan.summary()
        );

        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 1);
        // 1 memberOf match + 1 bornIn extension — not 200 + 1.
        assert!(
            run.metrics.rows_scanned <= 4,
            "scanned {} rows",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn limit_stops_scanning_early() {
        let store = skewed_store();
        let query = parse_query("SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 5").unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 5);
        assert_eq!(run.metrics.rows_emitted, 5);
        assert!(
            run.metrics.rows_scanned <= 5,
            "LIMIT 5 should scan ~5 index entries, scanned {}",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn ask_stops_after_first_row() {
        let store = skewed_store();
        let query = parse_query("ASK { ?p <http://e/bornIn> ?c . }").unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.as_boolean(), Some(true));
        assert!(run.metrics.rows_scanned <= 1);
    }

    #[test]
    fn text_step_runs_before_unselective_scan() {
        let store = skewed_store();
        let query =
            parse_query(r#"SELECT ?v WHERE { ?v ?p ?d . ?d <bif:contains> "'person'" . } LIMIT 3"#)
                .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert!(
            labels[0].starts_with("text "),
            "text probe must run first:\n{}",
            plan.summary()
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 3);
    }

    #[test]
    fn bound_subject_text_step_searches_once_not_per_row() {
        // 4 <name> edges vs ~200 literals matching "person": the planner
        // runs the selective scan first, demoting the text step to a
        // membership filter.  The search itself must then run once per
        // step, not once per row — total scan work stays O(rows + matches),
        // never O(rows × matches).
        let mut store = Store::new();
        let name = Term::iri("http://e/name");
        for i in 0..200 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/x{i}")),
                Term::iri(vocab::RDFS_LABEL),
                Term::literal_str(format!("person alias {i}")),
            ));
        }
        for i in 0..4 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/s{i}")),
                name.clone(),
                Term::literal_str(format!("person name {i}")),
            ));
        }
        let query = parse_query(
            r#"SELECT ?s ?d WHERE { ?s <http://e/name> ?d . ?d <bif:contains> "'person'" . }"#,
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        assert!(
            labels[0].starts_with("scan "),
            "selective scan must run first:\n{}",
            plan.summary()
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 4);
        // One search (≤204 matches counted once) + 4 scan extensions; the
        // old per-row search would have counted ~4×204.
        assert!(
            run.metrics.rows_scanned <= 204 + 4,
            "scanned {} rows — text search re-ran per row?",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn optional_text_step_shares_one_search_across_left_rows() {
        // The OPTIONAL right side re-runs once per left row; its
        // constant-string text search must still execute only once per run
        // (the match cache lives on the execution, not on the per-row
        // pipeline), keeping scan work O(rows + matches).
        let mut store = Store::new();
        let label = Term::iri(vocab::RDFS_LABEL);
        let born = Term::iri("http://e/bornIn");
        for i in 0..100 {
            let person = Term::iri(format!("http://e/person{i}"));
            store.insert(Triple::new(
                person.clone(),
                born.clone(),
                Term::iri("http://e/city0"),
            ));
            store.insert(Triple::new(
                person,
                label.clone(),
                Term::literal_str(format!("resident {i}")),
            ));
        }
        let query = parse_query(
            r#"SELECT ?p ?d WHERE {
                 ?p <http://e/bornIn> <http://e/city0> .
                 OPTIONAL { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?d .
                            ?d <bif:contains> "'resident'" . } }"#,
        )
        .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 100);
        // 100 bornIn scans + 100 label scans + ~100 text matches counted
        // once; a per-row search would count ~100×100.
        assert!(
            run.metrics.rows_scanned <= 100 + 100 + 100,
            "scanned {} rows — text search re-ran per left row?",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn filters_are_pushed_to_their_binding_step() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/memberOf> <http://e/club> . \
             ?p <http://e/bornIn> ?c . \
             FILTER (?c != <http://e/city0>) }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let rendered = plan.summary().to_string();
        // The filter line must appear nested under the bornIn step (which
        // binds ?c), not as a residual operator above the bgp.
        let bgp_pos = rendered.find("bgp").unwrap();
        let filter_pos = rendered.find("filter").unwrap();
        assert!(
            filter_pos > bgp_pos,
            "filter should be pushed inside the bgp:\n{rendered}"
        );
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 1); // person7 born in city3
    }

    #[test]
    fn unknown_constant_becomes_never_matches_step() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p WHERE { ?p <http://nowhere/pred> ?x . ?p <http://e/bornIn> ?c . }",
        )
        .unwrap();
        let plan = Planner::new(&store).plan(&query);
        let labels = plan.summary().step_labels();
        // Estimate 0 schedules it first, emptying the pipeline immediately.
        assert!(labels[0].starts_with("never-matches "));
        let run = plan.execute().unwrap();
        assert!(run.results.rows().is_empty());
        assert_eq!(run.metrics.rows_scanned, 0);
    }

    #[test]
    fn offset_and_distinct_stream_correctly() {
        let store = skewed_store();
        let query =
            parse_query("SELECT DISTINCT ?c WHERE { ?p <http://e/bornIn> ?c . } LIMIT 2 OFFSET 1")
                .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 2);
        // 4 distinct cities exist; the pipeline must stop once offset 1 +
        // limit 2 = 3 distinct values have been seen, well before all 200
        // bornIn entries are scanned.
        assert!(
            run.metrics.rows_scanned < 200,
            "scanned {}",
            run.metrics.rows_scanned
        );
    }

    #[test]
    fn explain_renders_an_operator_tree() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p ?c ?n WHERE { ?p <http://e/bornIn> ?c . \
             OPTIONAL { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?n . } } LIMIT 10",
        )
        .unwrap();
        let summary = explain(&store, &query);
        let rendered = summary.to_string();
        assert!(rendered.contains("select ?p ?c ?n limit 10"), "{rendered}");
        assert!(rendered.contains("left-join (optional)"), "{rendered}");
        assert!(
            rendered.contains("scan ?p <http://e/bornIn> ?c ."),
            "{rendered}"
        );
        assert!(rendered.contains("est"), "{rendered}");
    }

    #[test]
    fn cartesian_product_still_answers_correctly() {
        let mut store = Store::new();
        store.insert(Triple::new(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::iri("http://e/b"),
        ));
        store.insert(Triple::new(
            Term::iri("http://e/c"),
            Term::iri("http://e/q"),
            Term::iri("http://e/d"),
        ));
        // No shared variable: a forced cartesian product.
        let query = parse_query("SELECT ?x ?y WHERE { ?x <http://e/p> ?b . ?y <http://e/q> ?d . }")
            .unwrap();
        let run = Planner::new(&store).plan(&query).execute().unwrap();
        assert_eq!(run.results.rows().len(), 1);
    }

    /// A [`ServiceResolver`] over in-memory stores, counting remote calls.
    struct StoreResolver {
        stores: std::collections::BTreeMap<String, Store>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl StoreResolver {
        fn new(stores: impl IntoIterator<Item = (&'static str, Store)>) -> Self {
            StoreResolver {
                stores: stores
                    .into_iter()
                    .map(|(name, store)| (name.to_string(), store))
                    .collect(),
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl ServiceResolver for StoreResolver {
        fn service_names(&self) -> Vec<String> {
            self.stores.keys().cloned().collect()
        }

        fn execute_service(&self, kg: &str, query: &Query) -> Result<QueryResults, SparqlError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let store = self
                .stores
                .get(kg)
                .ok_or_else(|| SparqlError::UnknownService {
                    kg: kg.to_string(),
                    available: self.service_names(),
                })?;
            Ok(Planner::new(store).plan(query).execute()?.results)
        }
    }

    /// The skewed store published through a live store, for snapshot
    /// pinning (the parallel path requires an owned snapshot).
    fn skewed_live() -> std::sync::Arc<StoreSnapshot> {
        let live = LiveStore::new(skewed_store());
        live.snapshot()
    }

    /// A config aggressive enough to parallelise the 401-triple test store.
    fn eager_parallel() -> ParallelConfig {
        ParallelConfig {
            max_dop: 8,
            rows_per_worker: 8.0,
            morsels_per_worker: 2,
            min_page_rows: 0,
        }
    }

    #[test]
    fn parallel_run_matches_sequential_and_reports_per_worker_metrics() {
        let snapshot = skewed_live();
        let query = parse_query(
            "SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . \
             ?p <http://www.w3.org/2000/01/rdf-schema#label> ?n . }",
        )
        .unwrap();
        let sequential = Planner::new(&snapshot).plan(&query).execute().unwrap();
        assert!(sequential.metrics.parallel.is_none());

        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        let parallel = plan.execute().unwrap();
        assert_eq!(parallel.results, sequential.results);
        let info = parallel.metrics.parallel.as_ref().expect("ran parallel");
        assert!(info.dop >= 1 && info.morsels >= 2, "{info:?}");
        assert_eq!(
            info.rows_scanned_per_worker.iter().sum::<u64>(),
            parallel.metrics.rows_scanned
        );
        assert!(!parallel.metrics.deadline_exceeded);
    }

    #[test]
    fn limit_zero_returns_no_rows_at_any_dop() {
        // 64 triples: 16 subjects with 4 objects each under one predicate.
        let mut store = Store::new();
        for i in 0..64 {
            store.insert(Triple::new(
                Term::iri(format!("http://e/s{}", i / 4)),
                Term::iri("http://e/p"),
                Term::iri(format!("http://e/o{}", i % 4)),
            ));
        }
        let snapshot = LiveStore::new(store).snapshot();
        let config = ParallelConfig {
            max_dop: 4,
            rows_per_worker: 1.0,
            morsels_per_worker: 2,
            min_page_rows: 0,
        };
        for sparql in [
            "SELECT * WHERE { ?s ?p ?o . } LIMIT 0",
            "SELECT * WHERE { ?s ?p ?o . } LIMIT 0 OFFSET 3",
        ] {
            let query = parse_query(sparql).unwrap();
            let run = |max_dop| {
                Planner::for_shared_snapshot(&snapshot)
                    .with_parallelism(ParallelConfig { max_dop, ..config })
                    .plan(&query)
                    .execute()
                    .unwrap()
            };
            let single = run(1);
            assert!(single.metrics.parallel.is_none(), "{sparql}");
            assert!(single.results.rows().is_empty(), "{sparql}");
            assert_eq!(single.metrics.rows_scanned, 0, "{sparql}");
            let partitioned = run(4);
            assert!(partitioned.metrics.parallel.is_some(), "{sparql}");
            assert_eq!(partitioned.results, single.results, "{sparql}");
        }
    }

    #[test]
    fn parallel_metrics_report_every_partition_even_when_limit_stops_the_merge() {
        let snapshot = skewed_live();
        let query =
            parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . } LIMIT 1").unwrap();
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        let run = plan.execute().unwrap();
        assert_eq!(run.results.rows().len(), 1);
        let info = run.metrics.parallel.as_ref().expect("ran parallel");
        let partitions = format!("partition ({} morsels)", info.morsels);
        assert!(
            plan.summary().to_string().contains(&partitions),
            "{info:?}\n{}",
            plan.summary()
        );
    }

    #[test]
    fn explain_renders_parallel_and_partition_ops() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        let rendered = plan.summary().to_string();
        assert!(rendered.contains("parallel("), "{rendered}");
        assert!(rendered.contains("partition ("), "{rendered}");
        // The scan labels stay stable for step_labels-based assertions.
        assert_eq!(plan.summary().step_labels().len(), 1);
    }

    #[test]
    fn small_queries_keep_the_sequential_fast_path() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        // Default config: a 200-row scan is far below rows_per_worker.
        let plan = Planner::for_shared_snapshot(&snapshot).plan(&query);
        assert!(!plan.summary().to_string().contains("parallel("));
        let run = plan.execute().unwrap();
        assert!(run.metrics.parallel.is_none());
        assert_eq!(run.results.rows().len(), 200);
    }

    #[test]
    fn ask_and_small_pages_stay_sequential_under_parallel_config() {
        let snapshot = skewed_live();
        let planner = Planner::for_shared_snapshot(&snapshot).with_parallelism(ParallelConfig {
            min_page_rows: 4_096,
            ..eager_parallel()
        });
        let ask = parse_query("ASK { ?p <http://e/bornIn> ?c . }").unwrap();
        let run = planner.plan(&ask).execute().unwrap();
        assert!(run.metrics.parallel.is_none());
        // LIMIT 5 pages are cheaper streamed than scanned in full.
        let paged = parse_query("SELECT ?p WHERE { ?p <http://e/bornIn> ?c . } LIMIT 5").unwrap();
        let run = planner.plan(&paged).execute().unwrap();
        assert!(run.metrics.parallel.is_none());
        assert!(run.metrics.rows_scanned <= 5);
    }

    #[test]
    fn expired_deadline_returns_partial_prefix_sequentially() {
        let store = skewed_store();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::new(&store).plan(&query);
        let run = plan
            .execute_with(ExecOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            })
            .unwrap();
        assert!(run.metrics.deadline_exceeded);
        assert!(
            run.results.rows().len() < 200,
            "expired deadline must cut the run short, got {} rows",
            run.results.rows().len()
        );
    }

    #[test]
    fn expired_deadline_stops_parallel_run_at_morsel_boundaries() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        // The decision *is* parallel (deadline does not affect eligibility)…
        let rendered = plan.summary().to_string();
        assert!(rendered.contains("parallel("), "{rendered}");
        // …but an already-expired deadline means no morsel is ever claimed.
        let run = plan
            .execute_with(ExecOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            })
            .unwrap();
        assert!(run.metrics.deadline_exceeded);
        assert!(run.results.rows().is_empty());
    }

    #[test]
    fn service_joins_rows_across_stores() {
        let mut local = Store::new();
        local.insert(Triple::new(
            Term::iri("http://e/Alice"),
            Term::iri("http://e/spouse"),
            Term::iri("http://e/Bob"),
        ));
        let mut remote = Store::new();
        // `Bob` exists in both stores; `Berlin` only remotely, so the
        // result row must decode through the foreign-term table.
        remote.insert(Triple::new(
            Term::iri("http://e/Bob"),
            Term::iri("http://e/birthPlace"),
            Term::iri("http://e/Berlin"),
        ));
        remote.insert(Triple::new(
            Term::iri("http://e/Stranger"),
            Term::iri("http://e/birthPlace"),
            Term::iri("http://e/Paris"),
        ));
        let resolver = StoreResolver::new([("remote", remote)]);

        let query = parse_query(
            "SELECT ?q ?c WHERE { <http://e/Alice> <http://e/spouse> ?q . \
             SERVICE <kg:remote> { ?q <http://e/birthPlace> ?c . } }",
        )
        .unwrap();
        let plan = Planner::new(&local)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap();

        let rendered = plan.summary().to_string();
        assert!(rendered.contains("service <kg:remote>"), "{rendered}");
        assert!(
            rendered.contains("remote ?q <http://e/birthPlace> ?c ."),
            "{rendered}"
        );
        assert!(
            plan.summary()
                .step_labels()
                .iter()
                .any(|l| l.starts_with("service ")),
            "{rendered}"
        );

        let run = plan.execute().unwrap();
        let rows = run.results.rows();
        // Only Bob's birth place joins; the stranger's row is filtered out.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("q"), Some(&Term::iri("http://e/Bob")));
        assert_eq!(rows[0].get("c"), Some(&Term::iri("http://e/Berlin")));
        assert_eq!(resolver.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn service_remote_query_runs_once_per_execution() {
        let mut local = Store::new();
        for i in 0..5 {
            local.insert(Triple::new(
                Term::iri(format!("http://e/p{i}")),
                Term::iri("http://e/knows"),
                Term::iri("http://e/Bob"),
            ));
        }
        let mut remote = Store::new();
        remote.insert(Triple::new(
            Term::iri("http://e/Bob"),
            Term::iri("http://e/age"),
            Term::literal_str("42"),
        ));
        let resolver = StoreResolver::new([("remote", remote)]);
        let query = parse_query(
            "SELECT ?p ?a WHERE { ?p <http://e/knows> ?b . \
             SERVICE <kg:remote> { ?b <http://e/age> ?a . } }",
        )
        .unwrap();
        let plan = Planner::new(&local).with_services(&resolver).plan(&query);
        let run = plan.execute().unwrap();
        // Five local rows flow through the join, but the remote query runs
        // exactly once per run.
        assert_eq!(run.results.rows().len(), 5);
        assert_eq!(resolver.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn plan_checked_rejects_unknown_service_target() {
        let store = Store::new();
        let resolver = StoreResolver::new([("DBpedia", Store::new())]);
        let query =
            parse_query("SELECT ?s WHERE { SERVICE <kg:Nope> { ?s <http://e/p> ?o . } }").unwrap();
        let err = Planner::new(&store)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap_err();
        match err {
            SparqlError::UnknownService { kg, available } => {
                assert_eq!(kg, "Nope");
                assert_eq!(available, vec!["DBpedia".to_string()]);
            }
            other => panic!("expected UnknownService, got {other:?}"),
        }
        // The rendered message names the valid targets for the caller.
        let rendered = Planner::new(&store)
            .with_services(&resolver)
            .plan_checked(&query)
            .unwrap_err()
            .to_string();
        assert!(rendered.contains("DBpedia"), "{rendered}");
    }

    #[test]
    fn service_without_resolver_fails_at_plan_or_run_time() {
        let store = Store::new();
        let query =
            parse_query("SELECT ?s WHERE { SERVICE <kg:Anywhere> { ?s <http://e/p> ?o . } }")
                .unwrap();
        // plan_checked fails up front…
        let planner = Planner::new(&store);
        assert!(matches!(
            planner.plan_checked(&query),
            Err(SparqlError::Service { .. })
        ));
        // …and the infallible plan() defers the same error to execute().
        let err = planner.plan(&query).execute().unwrap_err();
        assert!(matches!(err, SparqlError::Service { .. }), "{err}");
    }
}
