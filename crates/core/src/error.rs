//! The unified error type of the façade.
//!
//! Each substrate reports failures in its own vocabulary — parse errors
//! from `wodex-rdf`, query errors from `wodex-sparql`. The
//! [`Explorer`](crate::Explorer) methods that can cross more than one
//! substrate return [`WodexError`] so a caller matches one enum instead
//! of juggling two.

use wodex_rdf::RdfError;
use wodex_sparql::QueryError;

/// Any error the [`Explorer`](crate::Explorer) façade can surface.
#[derive(Debug)]
pub enum WodexError {
    /// Parsing or modelling RDF failed.
    Rdf(RdfError),
    /// Parsing or evaluating a SPARQL query failed.
    Query(QueryError),
}

impl std::fmt::Display for WodexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WodexError::Rdf(e) => write!(f, "rdf: {e}"),
            WodexError::Query(e) => write!(f, "query: {e}"),
        }
    }
}

impl std::error::Error for WodexError {}

impl From<RdfError> for WodexError {
    fn from(e: RdfError) -> WodexError {
        WodexError::Rdf(e)
    }
}

impl From<QueryError> for WodexError {
    fn from(e: QueryError) -> WodexError {
        WodexError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let q: WodexError = QueryError::Eval("boom".into()).into();
        assert!(matches!(q, WodexError::Query(_)));
        assert!(q.to_string().starts_with("query:"));
    }
}
