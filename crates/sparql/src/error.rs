//! Errors produced by the SPARQL lexer, parser and evaluator.

use std::fmt;

/// Errors produced while lexing, parsing or evaluating a SPARQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// The query text could not be tokenized.
    Lex {
        /// Byte position of the offending character.
        position: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// The token stream did not form a valid query.
    Parse {
        /// Description of what went wrong, including what was expected.
        message: String,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix(String),
    /// The query used a feature outside the supported subset.
    Unsupported(String),
    /// A filter expression could not be evaluated.
    Evaluation(String),
    /// A `SERVICE <kg:name>` group named a KG the resolver does not know.
    UnknownService {
        /// The KG name the query asked for.
        kg: String,
        /// The KG names the resolver does know, for the error message.
        available: Vec<String>,
    },
    /// Executing a `SERVICE <kg:name>` group against the remote KG failed.
    Service {
        /// The KG the group targeted.
        kg: String,
        /// Description of what went wrong.
        message: String,
    },
    /// Groups and expressions nest deeper than the parser accepts.
    NestingTooDeep {
        /// The deepest nesting accepted ([`crate::parser::MAX_NESTING`]).
        limit: usize,
    },
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Lex { position, message } => {
                write!(f, "lexical error at byte {position}: {message}")
            }
            SparqlError::Parse { message } => write!(f, "parse error: {message}"),
            SparqlError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
            SparqlError::Unsupported(s) => write!(f, "unsupported SPARQL feature: {s}"),
            SparqlError::Evaluation(s) => write!(f, "evaluation error: {s}"),
            SparqlError::UnknownService { kg, available } => {
                write!(
                    f,
                    "SERVICE targets unknown KG '{kg}' (available: {})",
                    available.join(", ")
                )
            }
            SparqlError::Service { kg, message } => {
                write!(f, "SERVICE <kg:{kg}> failed: {message}")
            }
            SparqlError::NestingTooDeep { limit } => {
                write!(f, "query nests deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SparqlError::Lex {
            position: 3,
            message: "bad char".into()
        }
        .to_string()
        .contains("byte 3"));
        assert!(SparqlError::Parse {
            message: "expected WHERE".into()
        }
        .to_string()
        .contains("expected WHERE"));
        assert!(SparqlError::UnknownPrefix("dbx".into())
            .to_string()
            .contains("dbx"));
        assert!(SparqlError::Unsupported("CONSTRUCT".into())
            .to_string()
            .contains("CONSTRUCT"));
        assert!(SparqlError::Evaluation("type mismatch".into())
            .to_string()
            .contains("type"));
        let unknown = SparqlError::UnknownService {
            kg: "YAGO".into(),
            available: vec!["DBpedia".into(), "Wikidata".into()],
        }
        .to_string();
        assert!(unknown.contains("YAGO") && unknown.contains("DBpedia, Wikidata"));
        assert!(SparqlError::Service {
            kg: "Wikidata".into(),
            message: "deadline expired".into()
        }
        .to_string()
        .contains("kg:Wikidata"));
        assert!(SparqlError::NestingTooDeep { limit: 1024 }
            .to_string()
            .contains("1024 levels"));
    }
}
