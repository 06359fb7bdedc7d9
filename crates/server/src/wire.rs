//! The JSON wire formats the front-end speaks.
//!
//! Three schemas, all written and parsed through the shared hand-rolled
//! [`kgqan_endpoint::json`] layer (the environment has no serde):
//!
//! * **ask** — `POST /kg/{name}/ask` takes `{"question": ..., "id"?,
//!   "deadline_ms"?, "max_queries"?}` and answers with the serialized
//!   [`AnswerResponse`]: answers as SPARQL-JSON terms, the boolean verdict
//!   for yes/no questions, the budget verdict, and the request's
//!   `elapsed_ms`.
//! * **SPARQL results** — `GET/POST /kg/{name}/sparql` answers in the W3C
//!   *SPARQL 1.1 Query Results JSON Format*: `{"head": {"vars": [...]},
//!   "results": {"bindings": [...]}}` for SELECT, `{"head": {},
//!   "boolean": b}` for ASK.
//! * **errors** — every error body is `{"error": {"status": N,
//!   "message": ...}}`, with the status duplicated from the response line
//!   so bodies are self-describing in logs.

use std::time::Duration;

use kgqan::{AnswerRequest, AnswerResponse, AnswerSource};
use kgqan_endpoint::json::{write_json_number, write_json_string, Json};
use kgqan_endpoint::EndpointDescription;
use kgqan_federate::{FederatedRequest, FederatedResponse, KgStatus};
use kgqan_rdf::{IngestReport, Term};
use kgqan_sparql::QueryResults;

/// Parse the body of an ask request into an [`AnswerRequest`] targeting
/// `kg`.  Returns a human-readable message for the 400 body on failure.
pub fn parse_ask_request(body: &str, kg: &str) -> Result<AnswerRequest, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let question = doc
        .get("question")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing required string field \"question\"".to_string())?;
    if question.trim().is_empty() {
        return Err("field \"question\" must not be empty".to_string());
    }
    let mut request = AnswerRequest::new(question).on_kg(kg);
    if let Some(id) = doc.get("id") {
        let id = id
            .as_str()
            .ok_or_else(|| "field \"id\" must be a string".to_string())?;
        request = request.with_id(id);
    }
    if let Some(deadline) = doc.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .ok_or_else(|| "field \"deadline_ms\" must be a non-negative number".to_string())?;
        request = request.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max_queries) = doc.get("max_queries") {
        let n = max_queries
            .as_u64()
            .ok_or_else(|| "field \"max_queries\" must be a non-negative number".to_string())?;
        request.overrides.max_candidate_queries = Some(n as usize);
    }
    Ok(request)
}

/// Parse the body of `POST /federate/ask` into a [`FederatedRequest`].
///
/// The body is the ask body plus an optional `"kgs"` field: either the
/// string `"*"` (every registered KG, the default) or an array of KG
/// names.  Returns a human-readable message for the 400 body on failure.
pub fn parse_federate_request(body: &str) -> Result<FederatedRequest, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let question = doc
        .get("question")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing required string field \"question\"".to_string())?;
    if question.trim().is_empty() {
        return Err("field \"question\" must not be empty".to_string());
    }
    let mut request = FederatedRequest::new(question);
    if let Some(kgs) = doc.get("kgs") {
        if kgs.as_str() == Some("*") {
            // Explicit wildcard: keep the default all-KGs selection.
        } else if let Some(entries) = kgs.as_array() {
            let mut names = Vec::with_capacity(entries.len());
            for entry in entries {
                let name = entry
                    .as_str()
                    .ok_or_else(|| "field \"kgs\" must be an array of strings".to_string())?;
                names.push(name.to_string());
            }
            request = request.on_kgs(names);
        } else {
            return Err("field \"kgs\" must be \"*\" or an array of KG names".to_string());
        }
    }
    if let Some(id) = doc.get("id") {
        let id = id
            .as_str()
            .ok_or_else(|| "field \"id\" must be a string".to_string())?;
        request = request.with_id(id);
    }
    if let Some(deadline) = doc.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .ok_or_else(|| "field \"deadline_ms\" must be a non-negative number".to_string())?;
        request = request.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max_queries) = doc.get("max_queries") {
        let n = max_queries
            .as_u64()
            .ok_or_else(|| "field \"max_queries\" must be a non-negative number".to_string())?;
        request.overrides.max_candidate_queries = Some(n as usize);
    }
    Ok(request)
}

/// Append one RDF term in SPARQL-JSON form:
/// `{"type": "uri"|"literal"|"bnode", "value": ..., "datatype"?,
/// "xml:lang"?}`.
pub fn write_term(out: &mut String, term: &Term) {
    out.push_str("{\"type\":");
    match term {
        Term::Iri(iri) => {
            out.push_str("\"uri\",\"value\":");
            write_json_string(out, iri);
        }
        Term::Blank(label) => {
            out.push_str("\"bnode\",\"value\":");
            write_json_string(out, label);
        }
        Term::Literal(lit) => {
            out.push_str("\"literal\",\"value\":");
            write_json_string(out, &lit.lexical);
            if let Some(dt) = &lit.datatype {
                out.push_str(",\"datatype\":");
                write_json_string(out, dt);
            }
            if let Some(lang) = &lit.language {
                out.push_str(",\"xml:lang\":");
                write_json_string(out, lang);
            }
        }
    }
    out.push('}');
}

/// Serialize an [`AnswerResponse`] as the ask-route response body.
pub fn answer_response_to_json(response: &AnswerResponse) -> String {
    let mut out = String::from("{\"id\":");
    write_json_string(&mut out, &response.request_id);
    out.push_str(",\"kg\":");
    write_json_string(&mut out, &response.kg);
    out.push_str(",\"question\":");
    write_json_string(&mut out, &response.outcome.question);
    out.push_str(",\"answers\":[");
    for (i, term) in response.outcome.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_term(&mut out, term);
    }
    out.push_str("],\"boolean\":");
    match response.outcome.boolean {
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
        None => out.push_str("null"),
    }
    out.push_str(",\"partial\":");
    out.push_str(if response.is_partial() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"elapsed_ms\":");
    write_json_number(&mut out, response.elapsed.as_secs_f64() * 1e3);
    out.push_str(",\"executed_queries\":");
    write_json_number(&mut out, response.outcome.executed_queries.len() as f64);
    out.push_str(",\"answer_scores\":[");
    for (i, score) in response.answer_scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_number(&mut out, *score);
    }
    out.push_str("],\"sources\":");
    write_sources(&mut out, &response.sources);
    out.push('}');
    out
}

/// Append an array of [`AnswerSource`] provenance entries.
fn write_sources(out: &mut String, sources: &[AnswerSource]) {
    out.push('[');
    for (i, source) in sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kg\":");
        write_json_string(out, &source.kg);
        out.push_str(",\"epoch\":");
        match source.epoch {
            Some(epoch) => write_json_number(out, epoch as f64),
            None => out.push_str("null"),
        }
        out.push_str(",\"elapsed_ms\":");
        write_json_number(out, source.elapsed.as_secs_f64() * 1e3);
        out.push_str(",\"plan_rows\":");
        write_json_number(out, source.plan_rows as f64);
        out.push('}');
    }
    out.push(']');
}

/// Serialize a [`FederatedResponse`] as the `POST /federate/ask` body:
/// merged provenance-tagged answers plus one status entry per selected KG.
pub fn federated_response_to_json(response: &FederatedResponse) -> String {
    let mut out = String::from("{\"id\":");
    write_json_string(&mut out, &response.request_id);
    out.push_str(",\"question\":");
    write_json_string(&mut out, &response.question);
    out.push_str(",\"answers\":[");
    for (i, answer) in response.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"term\":");
        write_term(&mut out, &answer.term);
        out.push_str(",\"score\":");
        write_json_number(&mut out, answer.score);
        out.push_str(",\"kgs\":[");
        for (j, kg) in answer.kgs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_string(&mut out, kg);
        }
        out.push_str("]}");
    }
    out.push_str("],\"boolean\":");
    match response.boolean {
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
        None => out.push_str("null"),
    }
    out.push_str(",\"partial\":");
    out.push_str(if response.is_partial() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"kgs\":[");
    for (i, report) in response.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kg\":");
        write_json_string(&mut out, &report.kg);
        out.push_str(",\"status\":");
        write_json_string(&mut out, report.status.label());
        out.push_str(",\"http_status\":");
        write_json_number(&mut out, f64::from(report.status.http_status()));
        out.push_str(",\"elapsed_ms\":");
        write_json_number(&mut out, report.elapsed.as_secs_f64() * 1e3);
        out.push_str(",\"answers\":");
        write_json_number(&mut out, report.answers as f64);
        match &report.status {
            KgStatus::Unknown { available } => {
                out.push_str(",\"available\":[");
                for (j, name) in available.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, name);
                }
                out.push(']');
            }
            KgStatus::Failed { message } => {
                out.push_str(",\"message\":");
                write_json_string(&mut out, message);
            }
            KgStatus::Answered | KgStatus::Partial => {}
        }
        out.push('}');
    }
    out.push_str("],\"sources\":");
    write_sources(&mut out, &response.sources);
    out.push_str(",\"elapsed_ms\":");
    write_json_number(&mut out, response.elapsed.as_secs_f64() * 1e3);
    out.push('}');
    out
}

/// Serialize the `GET /kg` listing: one entry per registered KG with its
/// serving epoch and triple count (both `null` for endpoints that expose
/// no description).
pub fn kg_list_to_json(kgs: &[(String, Option<EndpointDescription>)]) -> String {
    let mut out = String::from("{\"kgs\":[");
    for (i, (name, description)) in kgs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(&mut out, name);
        match description {
            Some(d) => {
                out.push_str(",\"epoch\":");
                write_json_number(&mut out, d.epoch as f64);
                out.push_str(",\"triples\":");
                write_json_number(&mut out, d.triples as f64);
            }
            None => out.push_str(",\"epoch\":null,\"triples\":null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serialize query results in the W3C SPARQL 1.1 JSON results format.
pub fn query_results_to_json(results: &QueryResults) -> String {
    match results {
        QueryResults::Boolean(b) => {
            format!("{{\"head\":{{}},\"boolean\":{b}}}")
        }
        QueryResults::Solutions(rs) => {
            let mut out = String::from("{\"head\":{\"vars\":[");
            for (i, var) in rs.variables().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, var);
            }
            out.push_str("]},\"results\":{\"bindings\":[");
            for (i, row) in rs.rows().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                for (j, (var, term)) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, var);
                    out.push(':');
                    write_term(&mut out, term);
                }
                out.push('}');
            }
            out.push_str("]}}");
            out
        }
    }
}

/// Serialize a traced query for the `?explain=1` SPARQL route: the W3C
/// results under `"results"`, the physical plan as `{depth, label,
/// estimate}` operator lines, and the executor's work counters.
pub fn traced_query_to_json(traced: &kgqan_endpoint::TracedQuery) -> String {
    let mut out = String::from("{\"results\":");
    out.push_str(&query_results_to_json(&traced.results));
    out.push_str(",\"plan\":");
    match &traced.plan {
        Some(plan) => {
            out.push('[');
            for (i, op) in plan.ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"depth\":");
                write_json_number(&mut out, op.depth as f64);
                out.push_str(",\"label\":");
                write_json_string(&mut out, &op.label);
                out.push_str(",\"estimate\":");
                match op.estimate {
                    Some(estimate) => write_json_number(&mut out, estimate),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"metrics\":");
    match &traced.metrics {
        Some(metrics) => {
            out.push_str("{\"rows_scanned\":");
            write_json_number(&mut out, metrics.rows_scanned as f64);
            out.push_str(",\"rows_emitted\":");
            write_json_number(&mut out, metrics.rows_emitted as f64);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Serialize an ingest report.
pub fn ingest_report_to_json(report: &IngestReport) -> String {
    let mut out = String::from("{\"epoch\":");
    write_json_number(&mut out, report.epoch() as f64);
    out.push_str(",\"added\":");
    write_json_number(&mut out, report.added() as f64);
    out.push_str(",\"duplicates\":");
    write_json_number(&mut out, report.duplicates() as f64);
    out.push('}');
    out
}

/// The uniform error body: `{"error": {"status": N, "message": ...}}`.
pub fn error_body(status: u16, message: &str) -> String {
    let mut out = format!("{{\"error\":{{\"status\":{status},\"message\":");
    write_json_string(&mut out, message);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgqan_rdf::Literal;

    #[test]
    fn parses_ask_request_fields() {
        let req = parse_ask_request(
            r#"{"question": "Who?", "id": "r1", "deadline_ms": 250, "max_queries": 7}"#,
            "DBpedia",
        )
        .unwrap();
        assert_eq!(req.question, "Who?");
        assert_eq!(req.kg.as_deref(), Some("DBpedia"));
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.overrides.max_candidate_queries, Some(7));
    }

    #[test]
    fn rejects_bad_ask_bodies() {
        assert!(parse_ask_request("", "X").is_err());
        assert!(parse_ask_request("{}", "X").is_err());
        assert!(parse_ask_request(r#"{"question": ""}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": 42}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": "q", "deadline_ms": "soon"}"#, "X").is_err());
        assert!(parse_ask_request(r#"{"question": "q", "id": 9}"#, "X").is_err());
    }

    #[test]
    fn terms_serialize_in_sparql_json_form() {
        let mut out = String::new();
        write_term(&mut out, &Term::iri("http://e/Baltic_Sea"));
        assert_eq!(out, r#"{"type":"uri","value":"http://e/Baltic_Sea"}"#);

        let mut out = String::new();
        write_term(&mut out, &Term::blank("b0"));
        assert_eq!(out, r#"{"type":"bnode","value":"b0"}"#);

        let mut out = String::new();
        write_term(
            &mut out,
            &Term::Literal(Literal::typed(
                "12",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
        );
        let parsed = Json::parse(&out).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("literal"));
        assert_eq!(parsed.get("value").and_then(Json::as_str), Some("12"));
        assert!(parsed.get("datatype").is_some());

        let mut out = String::new();
        write_term(&mut out, &Term::literal_lang("Ostsee", "de"));
        let parsed = Json::parse(&out).unwrap();
        assert_eq!(parsed.get("xml:lang").and_then(Json::as_str), Some("de"));
    }

    #[test]
    fn sparql_select_results_match_w3c_shape() {
        use kgqan_sparql::{Binding, ResultSet};
        let rs = ResultSet::new(
            vec!["sea".into()],
            vec![Binding::new().with("sea", Term::iri("http://e/Baltic_Sea"))],
        );
        let body = query_results_to_json(&QueryResults::Solutions(rs));
        let parsed = Json::parse(&body).unwrap();
        let vars = parsed
            .get("head")
            .and_then(|h| h.get("vars"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(vars[0].as_str(), Some("sea"));
        let bindings = parsed
            .get("results")
            .and_then(|r| r.get("bindings"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(
            bindings[0]
                .get("sea")
                .and_then(|t| t.get("value"))
                .and_then(Json::as_str),
            Some("http://e/Baltic_Sea")
        );

        let ask = query_results_to_json(&QueryResults::Boolean(true));
        assert_eq!(ask, r#"{"head":{},"boolean":true}"#);
    }

    #[test]
    fn parses_federate_request_selections() {
        use kgqan_federate::KgSelection;

        let all = parse_federate_request(r#"{"question": "Who?"}"#).unwrap();
        assert_eq!(all.kgs, KgSelection::All);

        let star = parse_federate_request(r#"{"question": "Who?", "kgs": "*"}"#).unwrap();
        assert_eq!(star.kgs, KgSelection::All);

        let named = parse_federate_request(
            r#"{"question": "Who?", "kgs": ["DBpedia", "Wikidata"], "deadline_ms": 300, "id": "f1"}"#,
        )
        .unwrap();
        assert_eq!(
            named.kgs,
            KgSelection::Named(vec!["DBpedia".to_string(), "Wikidata".to_string()])
        );
        assert_eq!(named.deadline, Some(Duration::from_millis(300)));
        assert_eq!(named.id.as_deref(), Some("f1"));

        assert!(parse_federate_request(r#"{"kgs": ["DBpedia"]}"#).is_err());
        assert!(parse_federate_request(r#"{"question": "q", "kgs": 7}"#).is_err());
        assert!(parse_federate_request(r#"{"question": "q", "kgs": [7]}"#).is_err());
    }

    #[test]
    fn federated_response_serializes_reports_and_sources() {
        use kgqan::{AnswerSource, BudgetVerdict};
        use kgqan_federate::{FederatedAnswer, FederatedResponse, KgReport, KgStatus};

        let response = FederatedResponse {
            request_id: "f1".into(),
            question: "Who is the wife of Barack Obama?".into(),
            answers: vec![FederatedAnswer {
                term: Term::iri("http://dbpedia.org/resource/Michelle_Obama"),
                score: 0.875,
                kgs: vec!["DBpedia".into(), "Mirror".into()],
            }],
            boolean: None,
            verdict: BudgetVerdict::Partial,
            reports: vec![
                KgReport {
                    kg: "DBpedia".into(),
                    status: KgStatus::Answered,
                    elapsed: Duration::from_millis(12),
                    answers: 1,
                },
                KgReport {
                    kg: "YAGO".into(),
                    status: KgStatus::Unknown {
                        available: vec!["DBpedia".into(), "Mirror".into()],
                    },
                    elapsed: Duration::ZERO,
                    answers: 0,
                },
            ],
            sources: vec![AnswerSource {
                kg: "DBpedia".into(),
                epoch: Some(3),
                elapsed: Duration::from_millis(12),
                plan_rows: 42,
            }],
            elapsed: Duration::from_millis(15),
        };
        let body = federated_response_to_json(&response);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("partial"), Some(&Json::Bool(true)));
        let answers = parsed.get("answers").and_then(Json::as_array).unwrap();
        let kgs = answers[0].get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(kgs.len(), 2);
        let reports = parsed.get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(
            reports[1].get("http_status").and_then(Json::as_u64),
            Some(404)
        );
        assert_eq!(
            reports[1].get("status").and_then(Json::as_str),
            Some("unknown")
        );
        assert!(reports[1]
            .get("available")
            .and_then(Json::as_array)
            .is_some());
        let sources = parsed.get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources[0].get("epoch").and_then(Json::as_u64), Some(3));
        assert_eq!(sources[0].get("plan_rows").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn kg_listing_serializes_epochs_and_sizes() {
        let body = kg_list_to_json(&[
            (
                "DBpedia".to_string(),
                Some(EndpointDescription {
                    epoch: 2,
                    triples: 1234,
                }),
            ),
            ("Opaque".to_string(), None),
        ]);
        let parsed = Json::parse(&body).unwrap();
        let kgs = parsed.get("kgs").and_then(Json::as_array).unwrap();
        assert_eq!(kgs[0].get("name").and_then(Json::as_str), Some("DBpedia"));
        assert_eq!(kgs[0].get("epoch").and_then(Json::as_u64), Some(2));
        assert_eq!(kgs[0].get("triples").and_then(Json::as_u64), Some(1234));
        assert_eq!(kgs[1].get("epoch"), Some(&Json::Null));
    }

    #[test]
    fn error_body_is_self_describing() {
        let body = error_body(404, "unknown endpoint: YAGO");
        let parsed = Json::parse(&body).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("status").and_then(Json::as_u64), Some(404));
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("YAGO"));
    }
}
