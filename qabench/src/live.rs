//! The `sparql-live` workload: raw SPARQL reads beside concurrent writes
//! on a seeded `kgqan_bench::kggen` Zipf KG (500k triples, 50k entities).
//!
//! * One **closed-loop reader** runs a fixed mix: 40% point lookups and
//!   35% bound two-hops on Zipf-hot subjects, 20% paged unbound two-hops
//!   at `LIMIT 5000` with varying `OFFSET` (the morsel-parallel path), 5%
//!   category-restricted mutual-`links` joins.
//! * One **open-loop writer** sends 16-triple `links` batches to
//!   `/ingest` on a seeded Poisson schedule at [`WRITE_RATE`].
//!
//! The store only grows, so after the run every read without `LIMIT` must
//! lie between its answer on the epoch-0 store and its answer on the final
//! store; every paged read must hold exactly `LIMIT` rows, each a solution
//! in the final store; every ingest report must account for its batch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kgqan_bench::kggen::{ZipfKg, ZipfKgConfig, CATEGORY, LINKS};
use kgqan_endpoint::SparqlEndpoint;
use kgqan_rdf::{StoreSnapshot, Term, Triple};
use kgqan_server::ClientResponse;
use kgqan_sparql::{parse_query, QueryResults};

use crate::ask::{json_term_key, pct_name, term_key};
use crate::json::Json;
use crate::load::{drive, latencies, ok_body, points, throughput, Job, Pace, Record};
use crate::metrics::{zero_layers, Outcome, Values};
use crate::record::RunRecord;
use crate::rng::{poisson_schedule, Rng, Zipf};
use crate::setup::{
    build_stack, cache_entries, fastest, load_engine, peak_rss_mb, setup_times, Counters, KgInput,
    MemoryWindow, Stack,
};
use crate::stats::{block_median, Samples};
use crate::trace::{write_spans, Span, Tracer};

/// Registry name of the KG.
const KG: &str = "kggen";
/// Entities in the generated KG.
pub const ENTITIES: usize = 50_000;
/// Triples in the generated KG.
pub const TRIPLES: usize = 500_000;
/// Writer batches per second.
pub const WRITE_RATE: f64 = 8.0;
/// Triples per write batch.
const BATCH: usize = 16;
/// Rows per paged read.
const PAGE: usize = 5000;
/// Paged reads start at `PAGE_STEP * k` for `k` in `0..PAGE_OFFSETS`.
const PAGE_STEP: usize = 500;
const PAGE_OFFSETS: usize = 8;
/// Zipf exponent of read subjects.
const READ_SKEW: f64 = 1.0;
/// Zipf exponent of the write endpoints (the KG's own skew).
const WRITE_SKEW: f64 = 1.1;
/// Throw-away set-ups before and again after the timed window of a
/// `--trace 0` run; `setup_s` is the fastest of them and the served one.
const SETUP_REPEATS: usize = 1;
/// Untimed warm-up reads before the measured window.
const WARMUP_READS: usize = 300;

/// Read classes, in the order of the per-class metric names.
pub const CLASSES: [&str; 4] = ["point", "twohop", "paged", "mutual"];
const POINT: u8 = 0;
const TWOHOP: u8 = 1;
const PAGED: u8 = 2;
const MUTUAL: u8 = 3;
const INGEST: u8 = 4;

fn entity(i: usize) -> String {
    format!("http://kggen.invalid/e/{i}")
}

/// The entity a read's popularity rank maps to.  Read popularity is a
/// fixed function of the rank with a stride unrelated to the generator's
/// hub strides, so hot read subjects are ordinary entities, the same ones
/// on every seed.
fn read_subject(rank: usize) -> String {
    entity((rank * 7919 + 12_345) % ENTITIES)
}

fn read_job(class: u8, item: usize, text: String) -> Job {
    Job {
        op: class,
        item,
        due: None,
        path: format!("/kg/{KG}/sparql"),
        content_type: "application/sparql-query",
        body: text,
    }
}

/// `count` reader jobs, a pure function of the seed.
fn read_jobs(seed: u64, stream: u64, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, stream);
    let zipf = Zipf::new(ENTITIES, READ_SKEW);
    (0..count)
        .map(|item| {
            let u = rng.next_f64();
            let (class, text) = if u < 0.40 {
                let s = read_subject(zipf.sample(&mut rng));
                (POINT, format!("SELECT ?p ?o WHERE {{ <{s}> ?p ?o . }}"))
            } else if u < 0.75 {
                let s = read_subject(zipf.sample(&mut rng));
                (
                    TWOHOP,
                    format!("SELECT ?b ?c WHERE {{ <{s}> <{LINKS}> ?b . ?b <{CATEGORY}> ?c . }}"),
                )
            } else if u < 0.95 {
                let offset = PAGE_STEP * rng.below(PAGE_OFFSETS);
                (
                    PAGED,
                    format!(
                        "SELECT ?a ?b ?c WHERE {{ ?a <{LINKS}> ?b . ?b <{LINKS}> ?c . }} \
                         LIMIT {PAGE} OFFSET {offset}"
                    ),
                )
            } else {
                let c = rng.below(64);
                (
                    MUTUAL,
                    format!(
                        "SELECT ?a ?b WHERE {{ ?a <{CATEGORY}> <http://kggen.invalid/c/{c}> . \
                         ?a <{LINKS}> ?b . ?b <{LINKS}> ?a . }}"
                    ),
                )
            };
            read_job(class, item, text)
        })
        .collect()
}

/// The writer's batches on a Poisson schedule over `seconds`.
fn write_jobs(seed: u64, seconds: f64) -> Vec<Job> {
    let schedule = poisson_schedule(
        &mut Rng::new(seed, 21),
        WRITE_RATE,
        Duration::from_secs_f64(seconds),
    );
    let mut rng = Rng::new(seed, 22);
    let zipf = Zipf::new(ENTITIES, WRITE_SKEW);
    schedule
        .into_iter()
        .enumerate()
        .map(|(item, due)| {
            let mut body = String::new();
            for _ in 0..BATCH {
                // The generator's own hub strides, so writes land where
                // the KG is dense.
                let s = zipf.sample(&mut rng) * 0x9e37 % ENTITIES;
                let o = zipf.sample(&mut rng) * 0x85eb % ENTITIES;
                body.push_str(&format!("<{}> <{LINKS}> <{}> .\n", entity(s), entity(o)));
            }
            Job {
                op: INGEST,
                item,
                due: Some(due),
                path: format!("/kg/{KG}/ingest"),
                content_type: "application/n-triples",
                body,
            }
        })
        .collect()
}

/// Term keys interned to small ids, shared by the reader and the checks.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    keys: Vec<String>,
}

impl Interner {
    fn id(&mut self, key: String) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        id
    }
}

/// Solution rows, flattened: `arity` term ids per row, variables in name
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
struct Rows {
    arity: usize,
    ids: Vec<u32>,
}

impl Rows {
    fn len(&self) -> usize {
        self.ids.len().checked_div(self.arity).unwrap_or(0)
    }

    fn sorted(&self) -> Vec<&[u32]> {
        let mut rows: Vec<&[u32]> = if self.arity == 0 {
            Vec::new()
        } else {
            self.ids.chunks(self.arity).collect()
        };
        rows.sort_unstable();
        rows
    }
}

/// Size of the multiset intersection of two sorted row lists.
fn common(a: &[&[u32]], b: &[&[u32]]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Score a read without `LIMIT` against the bounds the add-only store
/// gives it: precision is the share of returned rows that are answers on
/// the final store, recall the share of epoch-0 answers returned.  Both
/// are 1 exactly when `epoch0 ⊆ got ⊆ final` as multisets.
fn bounded_read_pr(got: &Rows, epoch0: &Rows, last: &Rows) -> (f64, f64) {
    let (got, epoch0, last) = (got.sorted(), epoch0.sorted(), last.sorted());
    let precision = if got.is_empty() {
        1.0
    } else {
        common(&got, &last) as f64 / got.len() as f64
    };
    let recall = if epoch0.is_empty() {
        1.0
    } else {
        common(&got, &epoch0) as f64 / epoch0.len() as f64
    };
    (precision, recall)
}

fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

/// Parse a SPARQL-JSON SELECT body into interned rows.
fn parse_rows(body: &str, interner: &Mutex<Interner>) -> Result<Rows, String> {
    let doc = Json::parse(body)?;
    let mut vars: Vec<String> = doc
        .get("head")
        .and_then(|h| h.get("vars"))
        .and_then(Json::as_array)
        .ok_or("no head.vars")?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    vars.sort();
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .ok_or("no results.bindings")?;
    let mut interner = interner.lock().expect("interner poisoned");
    let mut rows = Rows {
        arity: vars.len(),
        ids: Vec::with_capacity(bindings.len() * vars.len()),
    };
    for row in bindings {
        for var in &vars {
            let key = row
                .get(var)
                .and_then(json_term_key)
                .ok_or_else(|| format!("row without ?{var}"))?;
            rows.ids.push(interner.id(key));
        }
    }
    Ok(rows)
}

/// Intern an engine result the same way.
fn engine_rows(results: &QueryResults, interner: &Mutex<Interner>) -> Rows {
    let QueryResults::Solutions(set) = results else {
        return Rows::default();
    };
    let mut vars: Vec<&str> = set.variables().iter().map(String::as_str).collect();
    vars.sort_unstable();
    let mut interner = interner.lock().expect("interner poisoned");
    let mut rows = Rows {
        arity: vars.len(),
        ids: Vec::new(),
    };
    for binding in set.rows() {
        let terms: HashMap<&str, &Term> = binding.iter().collect();
        for var in &vars {
            let key = terms.get(var).map_or_else(String::new, |t| term_key(t));
            rows.ids.push(interner.id(key));
        }
    }
    rows
}

/// A checked reply.
#[derive(Debug, Clone)]
enum Reply {
    Read(Rows),
    Ingest { epoch: u64, added: u64 },
}

fn check(
    job: &Job,
    response: &ClientResponse,
    interner: &Mutex<Interner>,
) -> Result<Reply, String> {
    let body = ok_body(response)?;
    if job.op != INGEST {
        return parse_rows(body, interner).map(Reply::Read);
    }
    let doc = Json::parse(body)?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("ingest report lacks {k}"))
    };
    let (epoch, added, duplicates) = (field("epoch")?, field("added")?, field("duplicates")?);
    if (added + duplicates) as usize != BATCH {
        return Err(format!(
            "ingest report accounts for {added} added + {duplicates} duplicates, batch had {BATCH}"
        ));
    }
    Ok(Reply::Ingest {
        epoch: epoch as u64,
        added: added as u64,
    })
}

/// What one measured phase saw.
struct Phase {
    start: Instant,
    reads: Vec<Record<Reply>>,
    writes: Vec<Record<Reply>>,
    window_s: f64,
    /// The process's peak resident set right after the timed window.
    hwm_mb: f64,
    f1: f64,
    replay: Vec<ReplayStat>,
    counters: Counters,
    cache_entries: usize,
    distinct_reads: usize,
    final_epoch: u64,
}

/// One distinct read replayed on the epoch-0 store, with its occurrences.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayStat {
    class: u8,
    times: usize,
    rows_scanned: u64,
    rows_emitted: u64,
    parallel: bool,
    dop: usize,
}

fn run_phase(
    stack: &Stack,
    kg: &KgInput,
    seed: u64,
    seconds: f64,
    replay_all: bool,
    outcome: &mut Outcome,
) -> Result<Phase, String> {
    let addr = stack.handle.addr();
    let engine = Arc::clone(&stack.engines[0]);
    let interner = Mutex::new(Interner::default());
    let checker = |job: &Job, response: &ClientResponse| check(job, response, &interner);

    let warm_jobs = read_jobs(seed, 11, WARMUP_READS);
    let warm = drive(
        addr,
        1,
        &warm_jobs,
        Pace::Once,
        Instant::now(),
        None,
        &checker,
    );
    warm.iter().for_each(|r| outcome.check(&r.reply));

    if engine.store().epoch() != 0 {
        return Err("store is not at epoch 0 before the writes".into());
    }
    // The reader cycles through more reads than a run can issue.
    let reads = read_jobs(seed, 12, 20_000);
    let writes = write_jobs(seed, seconds);
    let before = Counters::read(stack);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (read_records, write_records) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            drive(
                addr,
                1,
                &reads,
                Pace::Closed { until },
                start,
                None,
                &checker,
            )
        });
        let writer = scope.spawn(|| drive(addr, 1, &writes, Pace::Open, start, None, &checker));
        (
            reader.join().expect("reader panicked"),
            writer.join().expect("writer panicked"),
        )
    });
    let hwm_mb = peak_rss_mb();
    let end = read_records.iter().map(|r| r.recv).max().unwrap_or(start);
    let counters = Counters::read(stack).since(&before);
    let cache_entries = cache_entries(stack);

    read_records
        .iter()
        .chain(&write_records)
        .for_each(|r| outcome.check(&r.reply));

    // Ingest reports: epochs only increase, and strictly when triples
    // were added.
    let mut last_epoch = 0;
    for record in &write_records {
        if let Ok(Reply::Ingest { epoch, added }) = &record.reply {
            if *epoch < last_epoch || (*added > 0 && *epoch == last_epoch) {
                outcome.fail(format!(
                    "ingest epoch went from {last_epoch} to {epoch} (added {added})"
                ));
            }
            last_epoch = *epoch;
        }
    }

    // Replay every distinct read on the epoch-0 store (loaded afresh from
    // the inputs, so no old snapshot is held through the window) and on
    // the final store.
    let last: Arc<StoreSnapshot> = engine.store();
    let at_epoch0 = load_engine(kg);
    // Every checked read, warm-up included: (query text, class, record,
    // timed?).
    let checked: Vec<(&str, u8, &Record<Reply>, bool)> = warm
        .iter()
        .map(|r| {
            (
                warm_jobs[r.item].body.as_str(),
                warm_jobs[r.item].op,
                r,
                false,
            )
        })
        .chain(
            read_records
                .iter()
                .map(|r| (reads[r.item].body.as_str(), reads[r.item].op, r, true)),
        )
        .collect();
    // Distinct reads with their class and how often the timed window
    // issued them.
    let mut distinct: HashMap<&str, (u8, usize)> = HashMap::new();
    for &(text, class, _, timed) in &checked {
        distinct.entry(text).or_insert((class, 0)).1 += usize::from(timed);
    }
    let mut answers: HashMap<&str, (Rows, Rows)> = HashMap::new();
    let mut replay = Vec::new();
    let links = Term::iri(LINKS);
    for (&text, &(class, times)) in &distinct {
        if class == PAGED && !replay_all {
            continue;
        }
        let query = parse_query(text).map_err(|e| format!("read does not parse: {e}"))?;
        let traced = at_epoch0
            .query_traced(&query)
            .map_err(|e| format!("epoch-0 replay failed: {e}"))?;
        if let Some(m) = traced.metrics.as_ref().filter(|_| times > 0) {
            replay.push(ReplayStat {
                class,
                times,
                rows_scanned: m.rows_scanned,
                rows_emitted: m.rows_emitted,
                parallel: m.parallel.is_some(),
                dop: m.parallel.as_ref().map_or(1, |p| p.dop),
            });
        }
        if class != PAGED {
            let final_results = engine
                .query_parsed(&query)
                .map_err(|e| format!("final replay failed: {e}"))?;
            answers.insert(
                text,
                (
                    engine_rows(&traced.results, &interner),
                    engine_rows(&final_results, &interner),
                ),
            );
        }
    }

    let interned = interner.lock().expect("interner poisoned");
    // Paged rows repeat across reads; test each `links` edge once.
    let mut edges: HashMap<(u32, u32), bool> = HashMap::new();
    let mut is_edge = |from: u32, to: u32| {
        *edges.entry((from, to)).or_insert_with(|| {
            let iri = |id: u32| {
                interned.keys[id as usize]
                    .strip_prefix("uri|")
                    .and_then(|rest| rest.strip_suffix("||"))
                    .map(Term::iri)
            };
            match (iri(from), iri(to)) {
                (Some(s), Some(o)) => last.contains(&Triple::new(s, links.clone(), o)),
                _ => false,
            }
        })
    };
    let mut f1_sum = 0.0;
    let mut scored = 0usize;
    for &(text, class, record, timed) in &checked {
        let Ok(Reply::Read(rows)) = &record.reply else {
            continue;
        };
        let (precision, recall) = if class == PAGED {
            let valid = rows
                .ids
                .chunks(rows.arity.max(1))
                .filter(|row| match row {
                    [a, b, c] => is_edge(*a, *b) && is_edge(*b, *c),
                    _ => false,
                })
                .count();
            let n = rows.len();
            if n != PAGE || valid != n {
                outcome.fail(format!(
                    "paged read {text:?}: {n} rows ({valid} solutions in the final store), expected {PAGE}"
                ));
            }
            (
                if n == 0 { 1.0 } else { valid as f64 / n as f64 },
                n.min(PAGE) as f64 / PAGE as f64,
            )
        } else {
            let (epoch0_rows, final_rows) = &answers[text];
            let (precision, recall) = bounded_read_pr(rows, epoch0_rows, final_rows);
            if precision < 1.0 || recall < 1.0 {
                outcome.fail(format!(
                    "read {text:?} is outside [epoch-0, final]: precision {precision}, recall {recall}"
                ));
            }
            (precision, recall)
        };
        if timed {
            f1_sum += f1(precision, recall);
            scored += 1;
        }
    }
    drop(interned);

    Ok(Phase {
        start,
        window_s: end.duration_since(start).as_secs_f64().max(1e-9),
        hwm_mb,
        f1: if scored == 0 {
            0.0
        } else {
            f1_sum / scored as f64
        },
        distinct_reads: distinct.values().filter(|(_, times)| *times > 0).count(),
        final_epoch: last.epoch(),
        reads: read_records,
        writes: write_records,
        replay,
        counters,
        cache_entries,
    })
}

fn inputs(seed: u64) -> KgInput {
    let kg = ZipfKg::generate(ZipfKgConfig {
        seed: seed ^ 0x5eed_cafe_f00d_0001,
        entities: ENTITIES,
        triples: TRIPLES,
        exponent: 1.1,
        categories: 64,
    });
    KgInput {
        name: KG.to_string(),
        triples: kg.snapshot.iter().collect(),
    }
}

/// Latencies of the reads of `class`, or of every record.
fn class_latencies(records: &[Record<Reply>], class: Option<u8>) -> Samples {
    latencies(records.iter().filter(|r| class.is_none_or(|c| r.op == c)))
}

/// Run `sparql-live`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let kg = vec![inputs(seed)];
    let mut outcome = Outcome::default();
    let mut record = RunRecord::new("sparql-live", seed, seconds, trace);
    record.nums(
        "kg",
        [
            ("triples", kg[0].triples.len() as f64),
            ("entities", ENTITIES as f64),
            ("offered_write_rate", WRITE_RATE),
            ("batch_triples", BATCH as f64),
        ],
    );
    let seconds = seconds as f64;
    if !trace {
        let memory = MemoryWindow::open()?;
        let mut setups = setup_times(&kg, SETUP_REPEATS)?;
        let stack = build_stack(&kg, None)?;
        setups.push(stack.setup_s);
        let phase = run_phase(&stack, &kg[0], seed, seconds, false, &mut outcome)?;
        stack.shutdown();
        setups.extend(setup_times(&kg, SETUP_REPEATS)?);
        record.raw("setup_s_each", format!("{setups:?}"));
        let setup_s = fastest(&setups);
        let peak_mb = memory.growth_mb(phase.hwm_mb);
        end_to_end(&phase, (setup_s, peak_mb), &mut outcome, &mut record);
    } else {
        let stack = build_stack(&kg, None)?;
        let base = run_phase(&stack, &kg[0], seed, seconds / 2.0, false, &mut outcome)?;
        stack.shutdown();
        let tracer = Tracer::new(Instant::now());
        let stack = build_stack(&kg, Some(Arc::clone(&tracer)))?;
        let phase = run_phase(&stack, &kg[0], seed, seconds, true, &mut outcome)?;
        stack.shutdown();
        per_layer(&base, &phase, &tracer, &mut outcome, &mut record);
    }
    record.finish(&outcome);
    Ok(outcome)
}

fn mix(phase: &Phase, record: &mut RunRecord) {
    let count = |c: u8| phase.reads.iter().filter(|r| r.op == c).count() as f64;
    record.nums(
        "realized_mix",
        [
            ("point", count(POINT)),
            ("twohop", count(TWOHOP)),
            ("paged", count(PAGED)),
            ("mutual", count(MUTUAL)),
            ("ingest", phase.writes.len() as f64),
            ("distinct_reads", phase.distinct_reads as f64),
            ("final_epoch", phase.final_epoch as f64),
            ("cache_entries_at_end", phase.cache_entries as f64),
            ("cache_hit_ratio", phase.counters.cache.hit_rate()),
        ],
    );
}

fn end_to_end(
    phase: &Phase,
    (setup_s, peak_mb): (f64, f64),
    outcome: &mut Outcome,
    record: &mut RunRecord,
) {
    let reads = class_latencies(&phase.reads, None);
    let ingests = class_latencies(&phase.writes, None);
    let read_points = points(&phase.reads, phase.start);
    let write_points = points(&phase.writes, phase.start);
    let throughput = throughput(&phase.reads, phase.start, phase.window_s);
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let m = &mut outcome.metrics;
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_mb);
    m.insert("success_ratio", 1.0 - failed_ratio);
    m.insert("throughput_ops", throughput);
    m.insert("p90_ms", block_median(&read_points, phase.window_s, 0.9));
    m.insert(
        "side_p90_ms",
        block_median(&write_points, phase.window_s, 0.9),
    );
    m.insert("answer_f1", phase.f1);
    record.nums(
        "read_block_median_ms",
        [0.5, 0.9, 0.95, 0.99]
            .map(|q| (pct_name(q), block_median(&read_points, phase.window_s, q))),
    );

    reads.report("sparql_p50_ms", 0.5);
    reads.report("sparql_p90_ms", 0.9);
    reads.report("sparql_p99_ms", 0.99);
    ingests.report("ingest_p50_ms", 0.5);
    ingests.report("ingest_p90_ms", 0.9);
    for (c, name) in CLASSES.iter().enumerate() {
        let s = class_latencies(&phase.reads, Some(c as u8));
        println!(
            "report: sparql_p50_ms[{name}] = {:.4} ms (n={})",
            s.pct(0.5),
            s.len()
        );
    }
    println!("report: throughput_ops = {throughput:.3} reads/s (median over time blocks)");
    println!("report: failed_ratio = {failed_ratio} ratio");
    println!(
        "report: answer_f1 = {:.6} F1 (reads against the store's own bounds)",
        phase.f1
    );
    println!("report: setup_s = {setup_s:.4} s");
    mix(phase, record);
    lateness(&phase.writes, ingests.pct(0.5), record);
}

fn per_layer(
    base: &Phase,
    phase: &Phase,
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
    record: &mut RunRecord,
) {
    let mut spans = tracer.spans();
    let window_start = phase.reads.first().map_or(0, |r| tracer.at(r.send));
    let mut engine: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "engine" && s.parent == 0 && s.start >= window_start)
        .collect();
    engine.sort_by_key(|s| s.start);

    // The reader is the only client issuing queries, so an engine span
    // belongs to the read whose [send, recv] window holds it.
    let mut overhead = Samples::new();
    let mut per_class: Vec<Samples> = vec![Samples::new(); CLASSES.len()];
    let mut client_spans = Vec::new();
    let mut cursor = 0;
    for rec in &phase.reads {
        let (send, recv) = (tracer.at(rec.send), tracer.at(rec.recv));
        while cursor < engine.len() && engine[cursor].start < send {
            cursor += 1;
        }
        let mut engine_ms = 0.0;
        while cursor < engine.len() && engine[cursor].end <= recv {
            engine_ms += engine[cursor].ms();
            per_class[rec.op as usize].ok(engine[cursor].ms());
            cursor += 1;
        }
        if let Some(latency) = rec.latency_ms {
            overhead.ok(latency - engine_ms);
        }
        client_spans.push(Span {
            id: tracer.id(),
            name: "client.sparql",
            start: send,
            end: recv,
            parent: 0,
            request: 0,
            tag: CLASSES[rec.op as usize].to_string(),
            count: rec.body_bytes as u64,
        });
    }
    let mut ingest = Samples::new();
    let mut added = 0u64;
    for span in spans
        .iter()
        .filter(|s| s.name == "ingest" && s.start >= window_start)
    {
        ingest.ok(span.ms());
        added += span.count;
    }
    let body_kb = phase.reads.iter().map(|r| r.body_bytes as f64).sum::<f64>()
        / phase.reads.len().max(1) as f64
        / 1024.0;
    let base_p50 = class_latencies(&base.reads, None).pct(0.5);
    let traced_p50 = class_latencies(&phase.reads, None).pct(0.5);
    let overhead_pct = (traced_p50 - base_p50) / base_p50.max(1e-9) * 100.0;

    let mut m: Values = zero_layers();
    m.insert("server.overhead_ms.p50", overhead.pct(0.5));
    m.insert("server.overhead_ms.p95", overhead.pct(0.95));
    m.insert("server.body_kb.mean", body_kb);
    m.insert("server.shed", phase.counters.shed as f64);
    m.insert("server.refused", phase.counters.refused as f64);
    m.insert("cache.hit_ratio", phase.counters.cache.hit_rate());
    m.insert("cache.evictions", phase.counters.cache.evictions as f64);
    m.insert(
        "cache.scoped_evictions",
        phase.counters.cache.scoped_evictions as f64,
    );
    for (c, class) in CLASSES.iter().enumerate() {
        let stats: Vec<&ReplayStat> = phase.replay.iter().filter(|s| s.class == c as u8).collect();
        let weight: usize = stats.iter().map(|s| s.times).sum();
        let weighted = |f: &dyn Fn(&ReplayStat) -> f64| {
            stats.iter().map(|s| f(s) * s.times as f64).sum::<f64>() / weight.max(1) as f64
        };
        m.insert(
            metric_name("engine.read_ms.p50.", class),
            per_class[c].pct(0.5),
        );
        m.insert(
            metric_name("sparql.rows_scanned.", class),
            weighted(&|s| s.rows_scanned as f64),
        );
        m.insert(
            metric_name("sparql.rows_emitted.", class),
            weighted(&|s| s.rows_emitted as f64),
        );
        m.insert(
            metric_name("sparql.parallel_share.", class),
            weighted(&|s| f64::from(u8::from(s.parallel))),
        );
        m.insert(
            metric_name("sparql.dop.mean.", class),
            weighted(&|s| s.dop as f64),
        );
    }
    m.insert("rdf.ingest_ms.p50", ingest.pct(0.5));
    m.insert("rdf.ingest_ms.p95", ingest.pct(0.95));
    m.insert("rdf.epochs", phase.final_epoch as f64);
    m.insert("rdf.triples_added", added as f64);
    m.insert("trace.overhead_pct", overhead_pct);
    m.insert("trace.spans", spans.len() as f64);
    outcome.metrics = m;
    println!(
        "report: tracing overhead: sparql p50 {base_p50:.4} ms untraced, {traced_p50:.4} ms traced ({overhead_pct:+.2}%)"
    );
    mix(phase, record);
    lateness(
        &phase.writes,
        class_latencies(&phase.writes, None).pct(0.5),
        record,
    );
    spans.extend(client_spans);
    spans.sort_by_key(|s| s.start);
    let path = record.out_path("spans.jsonl");
    if let Err(e) = write_spans(&path, &spans) {
        eprintln!("qabench: cannot write {}: {e}", path.display());
    }
}

/// Generator lateness on an open loop: how late jobs the generator was
/// idle for went out, and how many jobs found every connection busy.  A
/// run is flagged invalid when the median lateness exceeds a tenth of the
/// median latency.
fn lateness<R>(records: &[Record<R>], latency_p50: f64, record: &mut RunRecord) {
    let mut late = Samples::new();
    records
        .iter()
        .filter_map(|r| r.lateness_ms)
        .for_each(|ms| late.ok(ms));
    let backlogged = records.iter().filter(|r| r.lateness_ms.is_none()).count();
    let valid = late.pct(0.5) <= 0.1 * latency_p50;
    println!(
        "report: generator_lateness_ms p50 = {:.4}, p99 = {:.4}; backlogged sends = {backlogged}/{}{}",
        late.pct(0.5),
        late.pct(0.99),
        records.len(),
        if valid { "" } else { " — RUN INVALID: generator lateness is not small against latency" }
    );
    record.nums(
        "generator_lateness_ms",
        [
            ("p50", late.pct(0.5)),
            ("p99", late.pct(0.99)),
            (
                "backlogged_share",
                backlogged as f64 / records.len().max(1) as f64,
            ),
        ],
    );
    record.raw("valid", valid.to_string());
}

/// The catalogued name `prefix` + `class` (every combination is in
/// [`crate::metrics::PER_LAYER`]).
fn metric_name(prefix: &str, class: &str) -> &'static str {
    let wanted = format!("{prefix}{class}");
    crate::metrics::PER_LAYER
        .iter()
        .map(|(name, _, _)| *name)
        .find(|name| *name == wanted)
        .expect("per-class metric is catalogued")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(arity: usize, ids: &[u32]) -> Rows {
        Rows {
            arity,
            ids: ids.to_vec(),
        }
    }

    #[test]
    fn reads_between_the_epoch0_and_final_answers_score_one() {
        let epoch0 = rows(1, &[1, 2]);
        let last = rows(1, &[1, 2, 3, 3]);
        assert_eq!(
            bounded_read_pr(&rows(1, &[2, 1, 3]), &epoch0, &last),
            (1.0, 1.0)
        );
        // Missing an epoch-0 row loses recall.
        assert_eq!(bounded_read_pr(&rows(1, &[1]), &epoch0, &last), (1.0, 0.5));
        // A row that is no answer even at the end loses precision.
        assert_eq!(
            bounded_read_pr(&rows(1, &[1, 2, 9]), &epoch0, &last).0,
            2.0 / 3.0
        );
        // Multiplicity counts: three copies of 3 exceed the final two.
        assert!(bounded_read_pr(&rows(1, &[1, 2, 3, 3, 3]), &epoch0, &last).0 < 1.0);
    }

    #[test]
    fn read_and_write_inputs_depend_only_on_the_seed() {
        let a = read_jobs(1, 12, 500);
        let b = read_jobs(1, 12, 500);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.op == y.op));
        let c = read_jobs(2, 12, 500);
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
        let w1 = write_jobs(1, 5.0);
        let w2 = write_jobs(1, 5.0);
        assert_eq!(w1.len(), w2.len());
        assert!(w1
            .iter()
            .zip(&w2)
            .all(|(x, y)| x.body == y.body && x.due == y.due));
        assert!(w1.iter().all(|j| j.body.lines().count() == BATCH));
    }

    #[test]
    fn read_mix_follows_the_declared_shares() {
        let jobs = read_jobs(3, 12, 20_000);
        let share = |c: u8| jobs.iter().filter(|j| j.op == c).count() as f64 / jobs.len() as f64;
        assert!((share(POINT) - 0.40).abs() < 0.02);
        assert!((share(TWOHOP) - 0.35).abs() < 0.02);
        assert!((share(PAGED) - 0.20).abs() < 0.02);
        assert!((share(MUTUAL) - 0.05).abs() < 0.01);
    }
}
