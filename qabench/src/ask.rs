//! The two question-answering workloads over HTTP.
//!
//! * `ask-general` — the 550 general-fact questions (DBpedia-10 150,
//!   DBpedia-04 300, YAGO-4 100), each asked on its own KG, as a **closed
//!   loop** of one client over Zipf-skewed question picks, 10% of
//!   requests `POST /federate/ask` over every KG.
//! * `ask-scholarly` — the 200 DBLP + MAG questions as a **closed loop**
//!   of one client over a seeded shuffle, after a warm-up pass whose
//!   cold-cache latencies are reported on their own.
//!
//! Every answer is checked against an in-process, uncached service.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgqan::{AnswerRequest, QaService, QuestionUnderstanding};
use kgqan_benchmarks::questions::questions_for;
use kgqan_benchmarks::{evaluate, Benchmark, GeneratedKg, KgFlavor, SuiteScale, SystemAnswer};
use kgqan_endpoint::SparqlEndpoint;
use kgqan_rdf::Term;
use kgqan_server::ClientResponse;

use crate::json::{write_str, Json};
use crate::load::{drive, latencies, ok_body, points, throughput, Job, Pace, Record};
use crate::metrics::{zero_layers, Outcome, Values};
use crate::record::RunRecord;
use crate::rng::{Rng, Zipf};
use crate::setup::{
    build_stack, cache_entries, fastest, load_engine, peak_rss_mb, setup_times, Counters, KgInput,
    MemoryWindow, Stack,
};
use crate::stats::{block_median, Samples};
use crate::trace::{self_times, write_spans, Span, Tracer};

/// Share of `ask-general` requests sent to `/federate/ask`.
const FEDERATE_SHARE: f64 = 0.1;

/// Zipf exponent of `ask-general` question picks.
const PICK_SKEW: f64 = 1.0;

/// Client threads (one keep-alive connection each).  One client leaves a
/// core free for the server's connection thread and for other load on the
/// host; with two, both cores run pipeline work, and any interference
/// from outside the process queues requests behind each other.
const CLIENTS: usize = 1;

/// Tolerated gap between the mean client latency and the mean of server
/// overhead plus the four stage times, in percent of the former.
pub const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

const OP_ASK: u8 = 0;
const OP_FEDERATE: u8 = 1;

/// Which question set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// DBpedia-10, DBpedia-04, YAGO-4.
    General,
    /// DBLP, MAG.
    Scholarly,
}

impl Kind {
    fn flavors(self) -> &'static [KgFlavor] {
        match self {
            Kind::General => &[KgFlavor::Dbpedia10, KgFlavor::Dbpedia04, KgFlavor::Yago],
            Kind::Scholarly => &[KgFlavor::Dblp, KgFlavor::Mag],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::General => "ask-general",
            Kind::Scholarly => "ask-scholarly",
        }
    }
}

/// One benchmark question, asked on its own KG.
struct Question {
    kg: usize,
    text: String,
    index: usize,
}

/// The generated inputs: KGs, question sets with gold answers.
struct Inputs {
    kgs: Vec<KgInput>,
    benchmarks: Vec<Benchmark>,
    questions: Vec<Question>,
}

fn inputs(kind: Kind) -> Inputs {
    let mut inputs = Inputs {
        kgs: Vec::new(),
        benchmarks: Vec::new(),
        questions: Vec::new(),
    };
    for (kg, &flavor) in kind.flavors().iter().enumerate() {
        let generated = GeneratedKg::generate(flavor, SuiteScale::Full.kg_scale(flavor));
        let benchmark = questions_for(&generated, SuiteScale::Full.question_count(flavor));
        inputs
            .questions
            .extend(
                benchmark
                    .questions
                    .iter()
                    .enumerate()
                    .map(|(index, q)| Question {
                        kg,
                        text: q.text.clone(),
                        index,
                    }),
            );
        inputs.kgs.push(KgInput {
            name: flavor.label().to_string(),
            triples: generated.store.iter().collect(),
        });
        inputs.benchmarks.push(benchmark);
    }
    inputs
}

/// An answer in comparable form: canonical term keys in answer order and
/// the boolean verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    terms: Vec<String>,
    boolean: Option<bool>,
}

/// `type|value|datatype|lang`, the same key whether the term comes from
/// the program or from a SPARQL-JSON body.
pub fn term_key(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("uri|{iri}||"),
        Term::Blank(label) => format!("bnode|{label}||"),
        Term::Literal(lit) => format!(
            "literal|{}|{}|{}",
            lit.lexical,
            lit.datatype.as_deref().unwrap_or(""),
            lit.language.as_deref().unwrap_or("")
        ),
    }
}

/// The key of a SPARQL-JSON term object.
pub fn json_term_key(term: &Json) -> Option<String> {
    let field = |k: &str| term.get(k).and_then(Json::as_str).unwrap_or("");
    let kind = term.get("type").and_then(Json::as_str)?;
    Some(format!(
        "{kind}|{}|{}|{}",
        term.get("value").and_then(Json::as_str)?,
        field("datatype"),
        field("xml:lang")
    ))
}

/// The oracle: every question answered in-process by an uncached service
/// over engines of its own, loaded from the same inputs, plus the macro
/// F1 of those answers against gold per benchmark.  It runs before the
/// stack under test is set up, and its engines are gone by then.
struct Oracle {
    answers: Vec<Answer>,
    f1: Vec<f64>,
}

fn oracle(inputs: &Inputs) -> Result<Oracle, String> {
    let mut builder = QaService::builder()
        .no_cache()
        .shared_understanding(Arc::new(QuestionUnderstanding::train_default()));
    for kg in &inputs.kgs {
        builder = builder.endpoint(load_engine(kg) as Arc<dyn SparqlEndpoint>);
    }
    let service = builder
        .build()
        .map_err(|e| format!("oracle service: {e}"))?;
    let requests: Vec<AnswerRequest> = inputs
        .questions
        .iter()
        .map(|q| AnswerRequest::new(q.text.clone()).on_kg(inputs.kgs[q.kg].name.clone()))
        .collect();
    let mut system: Vec<Vec<SystemAnswer>> = inputs
        .benchmarks
        .iter()
        .map(|b| vec![SystemAnswer::empty(); b.len()])
        .collect();
    let mut answers = Vec::with_capacity(requests.len());
    for (q, result) in inputs.questions.iter().zip(service.answer_batch(&requests)) {
        let response = result.map_err(|e| format!("oracle failed on {:?}: {e}", q.text))?;
        if response.is_partial() {
            return Err(format!("oracle answer to {:?} is partial", q.text));
        }
        answers.push(Answer {
            terms: response.outcome.answers.iter().map(term_key).collect(),
            boolean: response.outcome.boolean,
        });
        system[q.kg][q.index] = SystemAnswer {
            answers: response.outcome.answers.clone(),
            boolean: response.outcome.boolean,
            understanding_ok: true,
            phase_seconds: None,
        };
    }
    let f1 = inputs
        .benchmarks
        .iter()
        .zip(&system)
        .map(|(benchmark, answers)| evaluate(benchmark, "KGQAn", answers).macro_f1)
        .collect();
    Ok(Oracle { answers, f1 })
}

/// A checked reply.
#[derive(Debug, Clone, Default)]
struct Reply {
    /// Server-side pipeline time (`elapsed_ms`).
    elapsed_ms: f64,
    /// Federated: per-leg `elapsed_ms`.
    legs: Vec<f64>,
}

/// Check an ask reply against the oracle answer.
fn check_ask(response: &ClientResponse, expected: &Answer) -> Result<Reply, String> {
    let doc = Json::parse(ok_body(response)?)?;
    if doc.get("partial").and_then(Json::as_bool) != Some(false) {
        return Err("ask answer is partial".into());
    }
    let terms: Option<Vec<String>> = doc
        .get("answers")
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(json_term_key).collect());
    let got = Answer {
        terms: terms.ok_or("ask reply has no answers")?,
        boolean: doc.get("boolean").and_then(Json::as_bool),
    };
    if &got != expected {
        return Err(format!(
            "answer differs from the oracle: got {:?}, expected {:?}",
            got, expected
        ));
    }
    Ok(Reply {
        elapsed_ms: doc.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0),
        legs: Vec::new(),
    })
}

/// Check a federated reply: not partial, one leg per KG, every leg
/// `answered`.
fn check_federate(response: &ClientResponse, kgs: usize) -> Result<Reply, String> {
    let doc = Json::parse(ok_body(response)?)?;
    if doc.get("partial").and_then(Json::as_bool) != Some(false) {
        return Err("federated answer is partial".into());
    }
    let legs = doc
        .get("kgs")
        .and_then(Json::as_array)
        .ok_or("federated reply has no legs")?;
    if legs.len() != kgs {
        return Err(format!(
            "federated reply has {} legs, expected {kgs}",
            legs.len()
        ));
    }
    if let Some(leg) = legs
        .iter()
        .find(|leg| leg.get("status").and_then(Json::as_str) != Some("answered"))
    {
        return Err(format!("federated leg not answered: {leg:?}"));
    }
    Ok(Reply {
        elapsed_ms: doc.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0),
        legs: legs
            .iter()
            .filter_map(|leg| leg.get("elapsed_ms").and_then(Json::as_f64))
            .collect(),
    })
}

fn ask_job(inputs: &Inputs, item: usize) -> Job {
    let q = &inputs.questions[item];
    let mut body = String::from("{\"question\":");
    write_str(&mut body, &q.text);
    body.push('}');
    Job {
        op: OP_ASK,
        item,
        due: None,
        path: format!("/kg/{}/ask", inputs.kgs[q.kg].name),
        content_type: "application/json",
        body,
    }
}

fn federate_job(inputs: &Inputs, item: usize) -> Job {
    let mut body = String::from("{\"question\":");
    write_str(&mut body, &inputs.questions[item].text);
    body.push_str(",\"kgs\":\"*\"}");
    Job {
        op: OP_FEDERATE,
        item,
        due: None,
        path: "/federate/ask".to_string(),
        content_type: "application/json",
        body,
    }
}

/// `ask-general` picks queued per run; the closed loop cycles through
/// them if a run outlasts the list.
const GENERAL_PICKS: usize = 100_000;

/// The timed jobs of one run, a pure function of the seed.
fn timed_jobs(kind: Kind, inputs: &Inputs, seed: u64) -> Vec<Job> {
    let n = inputs.questions.len();
    let mut order: Vec<usize> = (0..n).collect();
    match kind {
        Kind::General => {
            Rng::new(seed, 3).shuffle(&mut order);
            let zipf = Zipf::new(n, PICK_SKEW);
            let mut picks = Rng::new(seed, 2);
            (0..GENERAL_PICKS)
                .map(|_| {
                    let federate = picks.next_f64() < FEDERATE_SHARE;
                    let item = order[zipf.sample(&mut picks)];
                    if federate {
                        federate_job(inputs, item)
                    } else {
                        ask_job(inputs, item)
                    }
                })
                .collect()
        }
        Kind::Scholarly => {
            Rng::new(seed, 4).shuffle(&mut order);
            order
                .into_iter()
                .map(|item| ask_job(inputs, item))
                .collect()
        }
    }
}

/// What one measured phase saw.
struct Phase {
    start: Instant,
    warm: Vec<Record<Reply>>,
    timed: Vec<Record<Reply>>,
    window_s: f64,
    /// The process's peak resident set right after the timed window.
    hwm_mb: f64,
    counters: Counters,
    cache_entries: usize,
}

impl Phase {
    /// The timed records of one operation.
    fn ops(&self, op: u8) -> impl Iterator<Item = &Record<Reply>> {
        self.timed.iter().filter(move |r| r.op == op)
    }
}

fn run_phase(
    kind: Kind,
    stack: &Stack,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Phase {
    let addr = stack.handle.addr();
    let service = stack.handle.service();
    let kgs = inputs.kgs.len();
    let check = |job: &Job, response: &ClientResponse| match job.op {
        OP_ASK => check_ask(response, &oracle.answers[job.item]),
        _ => check_federate(response, kgs),
    };

    // Warm-up: every question once on its KG, in a seeded order.
    let mut order: Vec<usize> = (0..inputs.questions.len()).collect();
    Rng::new(seed, 5).shuffle(&mut order);
    let warm_jobs: Vec<Job> = order.iter().map(|&i| ask_job(inputs, i)).collect();
    let warm = drive(
        addr,
        CLIENTS,
        &warm_jobs,
        Pace::Once,
        Instant::now(),
        None,
        &check,
    );

    let jobs = timed_jobs(kind, inputs, seed);
    let before = Counters::read(stack);
    let start = Instant::now();
    let pace = Pace::Closed {
        until: start + Duration::from_secs_f64(seconds),
    };
    let sample = stack.tracer.as_ref().map(|_| service);
    let timed = drive(addr, CLIENTS, &jobs, pace, start, sample, &check);
    let hwm_mb = peak_rss_mb();
    let end = timed.iter().map(|r| r.recv).max().unwrap_or(start);

    for record in warm.iter().chain(&timed) {
        outcome.check(&record.reply);
    }
    Phase {
        start,
        window_s: end.duration_since(start).as_secs_f64().max(1e-9),
        hwm_mb,
        counters: Counters::read(stack).since(&before),
        cache_entries: cache_entries(stack),
        warm,
        timed,
    }
}

/// Run an ask workload; returns the outcome with end-to-end metrics
/// (`trace == false`) or per-layer metrics (`trace == true`).
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let inputs = inputs(kind);
    let mut outcome = Outcome::default();
    let mut record = RunRecord::new(kind.name(), seed, seconds, trace);
    record.nums(
        "kg_triples",
        inputs
            .kgs
            .iter()
            .map(|kg| (kg.name.as_str(), kg.triples.len() as f64)),
    );
    record.num("questions", inputs.questions.len() as f64);
    let seconds = seconds as f64;

    let oracle = oracle(&inputs)?;
    if !trace {
        let memory = MemoryWindow::open()?;
        let mut setups = setup_times(&inputs.kgs, SETUP_REPEATS)?;
        let stack = build_stack(&inputs.kgs, None)?;
        setups.push(stack.setup_s);
        let phase = run_phase(kind, &stack, &inputs, &oracle, seed, seconds, &mut outcome);
        stack.shutdown();
        setups.extend(setup_times(&inputs.kgs, SETUP_REPEATS)?);
        record.raw("setup_s_each", format!("{setups:?}"));
        let setup_s = fastest(&setups);
        let peak_mb = memory.growth_mb(phase.hwm_mb);
        end_to_end(
            kind,
            &inputs,
            &oracle,
            &phase,
            (setup_s, peak_mb),
            &mut outcome,
            &mut record,
        );
    } else {
        // Untraced baseline for the tracing overhead, then the traced run.
        let stack = build_stack(&inputs.kgs, None)?;
        let base = run_phase(
            kind,
            &stack,
            &inputs,
            &oracle,
            seed,
            seconds / 2.0,
            &mut outcome,
        );
        stack.shutdown();
        let tracer = Tracer::new(Instant::now());
        let stack = build_stack(&inputs.kgs, Some(Arc::clone(&tracer)))?;
        let phase = run_phase(kind, &stack, &inputs, &oracle, seed, seconds, &mut outcome);
        stack.shutdown();
        per_layer(&inputs, &base, &phase, &tracer, &mut outcome, &mut record);
    }
    record.num("kgs", inputs.kgs.len() as f64);
    record.finish(&outcome);
    Ok(outcome)
}

/// Throw-away set-ups before and again after the timed window of a
/// `--trace 0` run; `setup_s` is the fastest of them and the served one.
const SETUP_REPEATS: usize = 6;

fn distinct(records: &[Record<Reply>]) -> usize {
    let mut items: Vec<(u8, usize)> = records.iter().map(|r| (r.op, r.item)).collect();
    items.sort_unstable();
    items.dedup();
    items.len()
}

fn end_to_end(
    kind: Kind,
    inputs: &Inputs,
    oracle: &Oracle,
    phase: &Phase,
    (setup_s, peak_mb): (f64, f64),
    outcome: &mut Outcome,
    record: &mut RunRecord,
) {
    let asks = latencies(phase.ops(OP_ASK));
    let federates = latencies(phase.ops(OP_FEDERATE));
    let cold = latencies(&phase.warm);
    let ask_points = points(phase.ops(OP_ASK), phase.start);
    // The side operation: federated asks in the timed window, or the
    // cold-cache warm-up pass (one block: it is a single short pass).
    let side_p90 = match kind {
        Kind::General => block_median(
            &points(phase.ops(OP_FEDERATE), phase.start),
            phase.window_s,
            0.9,
        ),
        Kind::Scholarly => cold.pct(0.9),
    };
    let weights: Vec<f64> = inputs.benchmarks.iter().map(|b| b.len() as f64).collect();
    let f1 = oracle
        .f1
        .iter()
        .zip(&weights)
        .map(|(f, w)| f * w)
        .sum::<f64>()
        / weights.iter().sum::<f64>();
    let throughput = throughput(&phase.timed, phase.start, phase.window_s);
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let m = &mut outcome.metrics;
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_mb);
    m.insert("success_ratio", 1.0 - failed_ratio);
    m.insert("throughput_ops", throughput);
    m.insert("p90_ms", block_median(&ask_points, phase.window_s, 0.9));
    m.insert("side_p90_ms", side_p90);
    m.insert("answer_f1", f1);
    record.nums(
        "ask_block_median_ms",
        [0.5, 0.9, 0.95, 0.99].map(|q| (pct_name(q), block_median(&ask_points, phase.window_s, q))),
    );

    // Per-operation names (ask_p50_ms, …), each with its sample count and whether
    // enough samples lie beyond the percentile.
    asks.report("ask_p50_ms", 0.5);
    asks.report("ask_p90_ms", 0.9);
    asks.report("ask_p99_ms", 0.99);
    match kind {
        Kind::General => {
            federates.report("federate_p50_ms", 0.5);
            federates.report("federate_p90_ms", 0.9);
            federates.report("federate_p99_ms", 0.99);
        }
        Kind::Scholarly => {
            cold.report("cold_ask_p50_ms", 0.5);
            cold.report("cold_ask_p90_ms", 0.9);
        }
    }
    println!("report: throughput_ops = {throughput:.3} ops/s (median over time blocks)");
    println!("report: failed_ratio = {failed_ratio} ratio");
    println!("report: answer_f1 = {f1:.4} F1");
    for (kg, f1) in inputs.kgs.iter().zip(&oracle.f1) {
        println!("report: answer_f1[{}] = {f1:.4} F1", kg.name);
        record.num(&format!("answer_f1[{}]", kg.name), *f1);
    }
    println!("report: setup_s = {setup_s:.4} s");

    record.nums(
        "realized_mix",
        [
            ("ask", asks.len() as f64),
            ("federate", federates.len() as f64),
            ("warmup_ask", cold.len() as f64),
            ("distinct_questions", distinct(&phase.timed) as f64),
            ("cache_entries_at_end", phase.cache_entries as f64),
            ("cache_hit_ratio", phase.counters.cache.hit_rate()),
        ],
    );
    record.num("clients", CLIENTS as f64);
}

/// `p50`, `p90`, … for a percentile.
pub fn pct_name(q: f64) -> &'static str {
    match (q * 100.0).round() as u32 {
        50 => "p50",
        90 => "p90",
        95 => "p95",
        _ => "p99",
    }
}

/// The reconciliation check over `matched` traced asks: the summed server
/// overhead plus the four stage times must come within
/// [`RECONCILE_TOLERANCE_PCT`] of the summed client latency.  Returns the
/// gap in percent; a larger gap, or no matched ask, fails the run.
fn reconcile(latency_sum: f64, layered_sum: f64, matched: usize, outcome: &mut Outcome) -> f64 {
    if matched == 0 || latency_sum <= 0.0 {
        outcome.fail("reconciliation: no traced ask matched a pipeline run".into());
        return 100.0;
    }
    let gap_pct = (layered_sum - latency_sum).abs() / latency_sum * 100.0;
    if gap_pct > RECONCILE_TOLERANCE_PCT {
        outcome.fail(format!(
            "layer times do not reconcile with client latency: gap {gap_pct:.3}% over \
             {matched} asks, tolerance {RECONCILE_TOLERANCE_PCT}%"
        ));
    }
    gap_pct
}

/// One pipeline run reassembled from its stage spans.
#[derive(Debug, Default, Clone)]
struct Run {
    question: String,
    kg: String,
    understand: (u64, u64),
    link: (u64, u64),
    execute: (u64, u64),
    filter: (u64, u64),
    candidates: u64,
    queries: u64,
    link_self: u64,
    stage_ids: Vec<u64>,
    claimed: bool,
}

impl Run {
    fn stages_ms(&self) -> f64 {
        [self.understand, self.link, self.execute, self.filter]
            .into_iter()
            .map(ms)
            .sum()
    }
}

fn ms(interval: (u64, u64)) -> f64 {
    interval.1.saturating_sub(interval.0) as f64 / 1e6
}

/// Reassemble pipeline runs from stage spans.
fn runs(spans: &[Span], own: &HashMap<u64, u64>) -> Vec<Run> {
    let mut by_request: HashMap<u64, Run> = HashMap::new();
    for span in spans.iter().filter(|s| s.request != 0 && s.parent == 0) {
        let run = by_request.entry(span.request).or_default();
        let interval = (span.start, span.end);
        match span.name {
            "understand" => {
                run.understand = interval;
                run.question = span.tag.clone();
            }
            "link" => {
                run.link = interval;
                run.kg = span.tag.clone();
                run.candidates = span.count;
                run.link_self = own.get(&span.id).copied().unwrap_or(0);
            }
            "execute" => {
                run.execute = interval;
                run.queries = span.count;
            }
            "filter" => run.filter = interval,
            _ => continue,
        }
        run.stage_ids.push(span.id);
    }
    let mut runs: Vec<Run> = by_request
        .into_values()
        .filter(|r| r.filter.1 > 0)
        .collect();
    runs.sort_by_key(|r| r.understand.0);
    runs
}

fn per_layer(
    inputs: &Inputs,
    base: &Phase,
    phase: &Phase,
    tracer: &Arc<Tracer>,
    outcome: &mut Outcome,
    record: &mut RunRecord,
) {
    let window_start = phase.timed.first().map_or(0, |r| tracer.at(r.send));
    let mut spans = tracer.spans();
    let own = self_times(&spans);
    let names: HashMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let all_runs = runs(&spans, &own);
    let mut runs: Vec<Run> = all_runs
        .into_iter()
        .filter(|r| r.understand.0 >= window_start)
        .collect();

    // Match client requests to pipeline runs by question, KG and window.
    let mut index: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (i, run) in runs.iter().enumerate() {
        index
            .entry((run.kg.clone(), run.question.clone()))
            .or_default()
            .push(i);
    }
    let claim = |kg: &str, question: &str, send: u64, recv: u64, runs: &mut Vec<Run>| {
        let slots = index.get(&(kg.to_string(), question.to_string()))?;
        let i = *slots.iter().find(|&&i| {
            let run = &runs[i];
            !run.claimed && run.understand.0 >= send && run.filter.1 <= recv
        })?;
        runs[i].claimed = true;
        Some(i)
    };

    let mut overhead = Samples::new();
    let (mut pre, mut post) = (Samples::new(), Samples::new());
    let (mut latency_sum, mut layered_sum, mut reconciled) = (0.0, 0.0, 0usize);
    let (mut legs, mut leg_ms, mut fanout) = (Samples::new(), Samples::new(), Samples::new());
    let mut queue_max = 0usize;
    let mut client_spans = Vec::new();
    let mut parents: HashMap<u64, u64> = HashMap::new();
    for rec in &phase.timed {
        queue_max = queue_max.max(rec.queue_depth);
        let Ok(reply) = &rec.reply else { continue };
        let Some(latency) = rec.latency_ms else {
            continue;
        };
        let (send, recv) = (tracer.at(rec.send), tracer.at(rec.recv));
        let question = &inputs.questions[rec.item];
        let client_id = tracer.id();
        overhead.ok(latency - reply.elapsed_ms);
        let mut matched = Vec::new();
        if rec.op == OP_ASK {
            if let Some(i) = claim(
                &inputs.kgs[question.kg].name,
                &question.text,
                send,
                recv,
                &mut runs,
            ) {
                let run = &runs[i];
                pre.ok(run.understand.0.saturating_sub(send) as f64 / 1e6);
                post.ok(recv.saturating_sub(run.filter.1) as f64 / 1e6);
                latency_sum += latency;
                layered_sum += latency - reply.elapsed_ms + run.stages_ms();
                reconciled += 1;
                matched.push(i);
            }
        } else {
            legs.ok(reply.legs.len() as f64);
            let slowest = reply.legs.iter().copied().fold(0.0, f64::max);
            reply.legs.iter().for_each(|&l| leg_ms.ok(l));
            fanout.ok(reply.elapsed_ms - slowest);
            for kg in &inputs.kgs {
                matched.extend(claim(&kg.name, &question.text, send, recv, &mut runs));
            }
        }
        for i in matched {
            parents.extend(runs[i].stage_ids.iter().map(|&id| (id, client_id)));
        }
        client_spans.push(Span {
            id: client_id,
            name: if rec.op == OP_ASK {
                "client.ask"
            } else {
                "client.federate"
            },
            start: send,
            end: recv,
            parent: 0,
            request: client_id,
            tag: question.text.clone(),
            count: rec.body_bytes as u64,
        });
    }

    let stage = |interval: fn(&Run) -> (u64, u64)| {
        let mut s = Samples::new();
        runs.iter().for_each(|r| s.ok(ms(interval(r))));
        s
    };
    let understand = stage(|r| r.understand);
    let link = stage(|r| r.link);
    let execute = stage(|r| r.execute);
    let filter = stage(|r| r.filter);
    let mut link_self = Samples::new();
    runs.iter()
        .for_each(|r| link_self.ok(r.link_self as f64 / 1e6));
    let mean = |f: &dyn Fn(&Run) -> f64| runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64;
    let (mut probes, mut candidates, mut engine_calls) = (Samples::new(), Samples::new(), 0usize);
    for span in spans
        .iter()
        .filter(|s| s.name == "engine" && s.start >= window_start)
    {
        match names.get(&span.parent) {
            Some(&"link") => probes.ok(span.ms()),
            Some(&"execute") => candidates.ok(span.ms()),
            _ => continue,
        }
        engine_calls += 1;
    }

    let base_p50 = latencies(base.ops(OP_ASK)).pct(0.5);
    let traced_p50 = latencies(phase.ops(OP_ASK)).pct(0.5);
    let overhead_pct = (traced_p50 - base_p50) / base_p50.max(1e-9) * 100.0;
    let gap_pct = reconcile(latency_sum, layered_sum, reconciled, outcome);
    let body_kb = phase.timed.iter().map(|r| r.body_bytes as f64).sum::<f64>()
        / phase.timed.len().max(1) as f64
        / 1024.0;

    let mut m: Values = zero_layers();
    m.insert("server.overhead_ms.p50", overhead.pct(0.5));
    m.insert("server.overhead_ms.p95", overhead.pct(0.95));
    m.insert("server.pre_ms.p50", pre.pct(0.5));
    m.insert("server.post_ms.p50", post.pct(0.5));
    m.insert("server.body_kb.mean", body_kb);
    m.insert("server.shed", phase.counters.shed as f64);
    m.insert("server.refused", phase.counters.refused as f64);
    m.insert("service.queue_depth.max", queue_max as f64);
    m.insert("service.pool_rejected", phase.counters.pool_rejected as f64);
    m.insert("understand_ms.p50", understand.pct(0.5));
    m.insert("understand_ms.p95", understand.pct(0.95));
    m.insert("link_ms.p50", link.pct(0.5));
    m.insert("link_ms.p95", link.pct(0.95));
    m.insert("link.self_ms.p50", link_self.pct(0.5));
    m.insert("link.candidates.mean", mean(&|r| r.candidates as f64));
    m.insert("execute_ms.p50", execute.pct(0.5));
    m.insert("execute_ms.p95", execute.pct(0.95));
    m.insert("execute.queries.mean", mean(&|r| r.queries as f64));
    m.insert("filter_ms.p50", filter.pct(0.5));
    m.insert("cache.hit_ratio", phase.counters.cache.hit_rate());
    m.insert("cache.evictions", phase.counters.cache.evictions as f64);
    m.insert(
        "cache.scoped_evictions",
        phase.counters.cache.scoped_evictions as f64,
    );
    m.insert(
        "engine.calls.per_ask",
        engine_calls as f64 / runs.len().max(1) as f64,
    );
    m.insert("engine.probe_ms.p50", probes.pct(0.5));
    m.insert("engine.candidate_ms.p50", candidates.pct(0.5));
    m.insert("federate.legs.mean", legs.mean());
    m.insert("federate.leg_ms.p50", leg_ms.pct(0.5));
    m.insert("federate.fanout_ms.p50", fanout.pct(0.5));
    m.insert("trace.overhead_pct", overhead_pct);
    m.insert("trace.reconcile_gap_pct", gap_pct);
    m.insert("trace.spans", spans.len() as f64);
    outcome.metrics = m;

    let reconciles = gap_pct <= RECONCILE_TOLERANCE_PCT;
    println!(
        "report: reconciliation over {reconciled} asks: mean client latency {:.4} ms, \
         mean(server overhead + understand + link + execute + filter) {:.4} ms, gap {gap_pct:.3}% \
         (tolerance {RECONCILE_TOLERANCE_PCT}%){}",
        latency_sum / reconciled.max(1) as f64,
        layered_sum / reconciled.max(1) as f64,
        if reconciles {
            ""
        } else {
            " — DOES NOT RECONCILE"
        }
    );
    println!(
        "report: tracing overhead: ask p50 {base_p50:.4} ms untraced, {traced_p50:.4} ms traced ({overhead_pct:+.2}%)"
    );
    record.raw("reconciles", reconciles.to_string());
    record.num("matched_asks", reconciled as f64);
    record.num("pipeline_runs", runs.len() as f64);
    for span in &mut spans {
        if let Some(&parent) = parents.get(&span.id) {
            span.parent = parent;
        }
    }
    spans.extend(client_spans);
    spans.sort_by_key(|s| s.start);
    let path = record.out_path("spans.jsonl");
    if let Err(e) = write_spans(&path, &spans) {
        eprintln!("qabench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> ClientResponse {
        ClientResponse {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn an_ask_reply_must_equal_the_oracle_answer() {
        let expected = Answer {
            terms: vec![term_key(&Term::iri("http://e/a"))],
            boolean: None,
        };
        let body = |iri: &str, partial: bool| {
            format!(
                r#"{{"answers":[{{"type":"uri","value":"{iri}"}}],"boolean":null,"partial":{partial},"elapsed_ms":0.5}}"#
            )
        };
        let reply = check_ask(&response(200, &body("http://e/a", false)), &expected).unwrap();
        assert_eq!(reply.elapsed_ms, 0.5);
        assert!(check_ask(&response(200, &body("http://e/b", false)), &expected).is_err());
        assert!(check_ask(&response(200, &body("http://e/a", true)), &expected).is_err());
        assert!(check_ask(&response(503, &body("http://e/a", false)), &expected).is_err());
    }

    #[test]
    fn a_federated_reply_needs_every_leg_answered() {
        let body = |second: &str| {
            format!(
                r#"{{"partial":false,"elapsed_ms":3,"kgs":[{{"kg":"A","status":"answered","elapsed_ms":1}},{{"kg":"B","status":"{second}","elapsed_ms":2}}]}}"#
            )
        };
        let reply = check_federate(&response(200, &body("answered")), 2).unwrap();
        assert_eq!(reply.legs, vec![1.0, 2.0]);
        assert!(check_federate(&response(200, &body("failed")), 2).is_err());
        assert!(check_federate(&response(200, &body("answered")), 3).is_err());
    }

    #[test]
    fn layer_times_that_do_not_reconcile_fail_the_run() {
        let mut outcome = Outcome::default();
        outcome.check(&Ok::<(), String>(()));
        let gap = reconcile(100.0, 98.0, 10, &mut outcome);
        assert!((gap - 2.0).abs() < 1e-9);
        assert_eq!(outcome.exit_code(), 0);

        let gap = reconcile(100.0, 90.0, 10, &mut outcome);
        assert!((gap - 10.0).abs() < 1e-9);
        assert!(!outcome.correct());
        assert_eq!(outcome.exit_code(), 1);
        assert!(outcome.result_line().starts_with("{\"correct\":false"));

        let mut unmatched = Outcome::default();
        unmatched.check(&Ok::<(), String>(()));
        reconcile(0.0, 0.0, 0, &mut unmatched);
        assert!(!unmatched.correct());
    }
}
