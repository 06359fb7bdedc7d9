//! Building the system under test the way `examples/serve_http.rs` does —
//! stores loaded into `InProcessEndpoint`s, `QuestionUnderstanding`
//! trained, a `QaService` with `.workers(2)`, `serve` with
//! `ServerConfig::default()` — timed from inputs in memory to the first
//! accepted request, plus the facts a run record is stamped with.

use std::sync::Arc;
use std::time::Instant;

use kgqan::pipeline::{JitLinkStage, ManagedExecution, Pipeline, TypeFiltration};
use std::sync::atomic::Ordering;

use kgqan::{CacheStats, KgqanConfig, QaService, QuestionUnderstanding, SemanticAffinity};
use kgqan_endpoint::{InProcessEndpoint, SparqlEndpoint};
use kgqan_rdf::{Store, Triple};
use kgqan_server::{serve, HttpClient, ServerConfig, ServerHandle};

use crate::trace::{
    TracedEndpoint, TracedExecute, TracedFilter, TracedLink, TracedUnderstand, Tracer,
};

/// One KG as generated input: its registry name and its triples.
pub struct KgInput {
    /// Registry name (the `{kg}` of `/kg/{kg}/…`).
    pub name: String,
    /// The triples, in generation order.
    pub triples: Vec<Triple>,
}

/// A running stack: the server and handles to what it serves.
pub struct Stack {
    /// The HTTP server (owns the service).
    pub handle: ServerHandle,
    /// The raw engines, one per KG, in input order.
    pub engines: Vec<Arc<InProcessEndpoint>>,
    /// The span sink, on a traced stack.
    pub tracer: Option<Arc<Tracer>>,
    /// Seconds from inputs in memory to the first accepted request.
    pub setup_s: f64,
}

impl Stack {
    /// Stop the server and join its threads.
    pub fn shutdown(mut self) {
        self.handle.shutdown();
    }
}

/// Server, pool and cache counters, read before and after a measured
/// window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Cache counters summed over every KG namespace.
    pub cache: CacheStats,
    /// Requests shed by the queue-depth check.
    pub shed: u64,
    /// Connections refused by the full connection queue.
    pub refused: u64,
    /// Submissions the worker pool rejected.
    pub pool_rejected: u64,
}

impl Counters {
    /// The stack's counters now.
    pub fn read(stack: &Stack) -> Self {
        let service = stack.handle.service();
        let metrics = stack.handle.metrics();
        Counters {
            cache: service.cache_report().total(),
            shed: metrics.load_shed.load(Ordering::Relaxed),
            refused: metrics.connections_refused.load(Ordering::Relaxed),
            pool_rejected: service.pool_stats().map_or(0, |s| s.rejected),
        }
    }

    /// What changed since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache: self.cache.since(&before.cache),
            shed: self.shed - before.shed,
            refused: self.refused - before.refused,
            pool_rejected: self.pool_rejected - before.pool_rejected,
        }
    }
}

/// Entries cached across every KG namespace of the stack.
pub fn cache_entries(stack: &Stack) -> usize {
    let registry = stack.handle.service().registry();
    registry
        .names()
        .iter()
        .filter_map(|kg| registry.cache_of(kg))
        .map(|cache| cache.len())
        .sum()
}

/// Load one KG into a fresh store behind an in-process engine.
pub fn load_engine(kg: &KgInput) -> Arc<InProcessEndpoint> {
    let mut store = Store::new();
    store.insert_all(kg.triples.iter().cloned());
    Arc::new(InProcessEndpoint::new(kg.name.clone(), store))
}

/// Build and start a stack over `kgs`.  With a tracer the pipeline stages
/// and the engines are wrapped in the benchmark's span decorators.
pub fn build_stack(kgs: &[KgInput], tracer: Option<Arc<Tracer>>) -> Result<Stack, String> {
    let started = Instant::now();
    let engines: Vec<Arc<InProcessEndpoint>> = kgs.iter().map(load_engine).collect();
    let understanding = Arc::new(QuestionUnderstanding::train_default());

    let mut builder = QaService::builder()
        .shared_understanding(Arc::clone(&understanding))
        .workers(2);
    for engine in &engines {
        let engine: Arc<dyn SparqlEndpoint> = Arc::clone(engine) as Arc<dyn SparqlEndpoint>;
        builder = builder.endpoint(match &tracer {
            Some(tracer) => Arc::new(TracedEndpoint {
                inner: engine,
                tracer: Arc::clone(tracer),
            }),
            None => engine,
        });
    }
    if let Some(tracer) = &tracer {
        builder = builder.pipeline(traced_pipeline(&understanding, tracer));
    }
    let service = builder.build().map_err(|e| format!("service build: {e}"))?;
    let handle = serve(service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let health = HttpClient::connect(handle.addr())
        .get("/healthz")
        .map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    Ok(Stack {
        handle,
        engines,
        tracer,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// The default KGQAn pipeline with every stage wrapped in a decorator.
fn traced_pipeline(understanding: &Arc<QuestionUnderstanding>, tracer: &Arc<Tracer>) -> Pipeline {
    let affinity: Arc<dyn SemanticAffinity> = Arc::from(KgqanConfig::default().affinity.build());
    Pipeline::new(
        Arc::new(TracedUnderstand {
            inner: Arc::clone(understanding) as _,
            tracer: Arc::clone(tracer),
        }),
        Arc::new(TracedLink {
            inner: Arc::new(JitLinkStage::new(Arc::clone(&affinity))),
            tracer: Arc::clone(tracer),
        }),
        Arc::new(TracedExecute {
            inner: Arc::new(ManagedExecution),
            tracer: Arc::clone(tracer),
        }),
        Arc::new(TracedFilter {
            inner: Arc::new(TypeFiltration::new(affinity)),
            tracer: Arc::clone(tracer),
        }),
    )
}

/// Set-up times of `n` throw-away stacks over `kgs`, each shut down as
/// soon as it serves.  A run sets up several times, some before its timed
/// window and some after it, and reports the fastest: set-up is
/// deterministic work, and other load on the host only ever adds time to
/// it, in stretches that can outlast a few back-to-back set-ups.
pub fn setup_times(kgs: &[KgInput], n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let stack = build_stack(kgs, None)?;
            let seconds = stack.setup_s;
            stack.shutdown();
            Ok(seconds)
        })
        .collect()
}

/// The fastest of the set-up times.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The memory the system under test takes: how far the process's peak
/// resident set (`VmHWM`) rises above a baseline taken once the
/// benchmark's inputs are in memory.  The baseline holds the inputs, so
/// neither they nor the scratch memory of generating them count.
pub struct MemoryWindow {
    base_mb: f64,
}

impl MemoryWindow {
    /// Return freed memory to the OS, reset `VmHWM` to the current
    /// resident set and take that as the baseline.
    pub fn open() -> Result<Self, String> {
        release_free_heap();
        // Writing 5 resets the peak resident set to the current one.
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
        Ok(MemoryWindow {
            base_mb: status_mb("VmRSS:"),
        })
    }

    /// MiB by which a peak resident set `hwm_mb` (read with
    /// [`peak_rss_mb`]) lies above the baseline.
    pub fn growth_mb(&self, hwm_mb: f64) -> f64 {
        hwm_mb - self.base_mb
    }
}

/// Hand free heap pages back to the OS, so that memory freed by input
/// generation is not silently reused by the system under test.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free pages of the
    // allocator's own arenas; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set of this process (`VmHWM`) now, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The processor model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
