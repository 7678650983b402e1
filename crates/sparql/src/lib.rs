//! # wodex-sparql — a SPARQL-subset query engine
//!
//! Every WoD system the survey catalogs sits on a SPARQL endpoint: the
//! generic systems bind visualizations to SELECT results (Sgvizler \[120\],
//! Visualbox \[50\], VISU \[6\]), the browsers expand resources with DESCRIBE-
//! like lookups, and §2's "query or API endpoints for online access" is
//! the defining trait of the dynamic setting. This crate implements the
//! practical subset those tools actually issue:
//!
//! * `SELECT` (with `DISTINCT`, projection or `*`), `ASK`, and
//!   `DESCRIBE <iri>` (the browsers' resource-expansion form),
//! * basic graph patterns with variables in any position,
//! * `OPTIONAL { ... }` (left join; `!BOUND` gives negation) and
//!   `{ A } UNION { B }` alternatives,
//! * `FILTER` expressions: comparisons on typed values, logical
//!   operators, `BOUND`, `CONTAINS`, `STRSTARTS`, `LANG`, `ISIRI`,
//!   `ISLITERAL`, `STR`,
//! * `GROUP BY` with `COUNT` / `SUM` / `AVG` / `MIN` / `MAX` aggregates,
//! * `ORDER BY` (`ASC`/`DESC`), `LIMIT` / `OFFSET`,
//! * `PREFIX` declarations and numeric/boolean literal abbreviations.
//!
//! Terms in a query are read by `wodex-rdf`'s term lexer
//! (`wodex_rdf::lex`), the one the N-Triples and Turtle parsers use: query
//! text is UTF-8 and IRIs, prefixed names and literals may hold any
//! script; strings take either quote, the long `"""` forms, and the
//! `\t \n \r \" \' \\ \uXXXX \UXXXXXXXX` escapes; `1` is an `xsd:integer`,
//! `1.5` an `xsd:decimal`, `1e3` an `xsd:double`, exactly as in Turtle, so
//! a constant matches the term a document loaded. What is SPARQL's own
//! stays in [`parser`]: variables, keywords, punctuation, and telling
//! `<iri>` from less-than. A [`parser::ParseError`] carries the byte
//! offset of the offending token, or the text's length at end of input.
//!
//! There is **one BGP executor** ([`plan`]): a single step loop joins
//! every pattern group — required groups, UNION combinations, OPTIONAL
//! blocks — compiled onto the store's pattern indexes, applies filters
//! as soon as their variables bind, and supports **early termination**
//! for `LIMIT`-only queries — the incremental-result behaviour §2 asks
//! of exploratory interfaces. Under it, one stage driver is the only
//! place a join meets the [`Budget`]: an over-budget stage keeps its
//! completed prefix and the answer comes back flagged [`Degraded`],
//! coarser instead of failed.
//!
//! What the loop runs comes from **two plan builders**, selected by
//! [`Engine`]. The cost-based builder orders multi-pattern groups with
//! the store's O(1) cardinality statistics, picks a batched merge or
//! hash join per step (falling back to per-row index probes), caches
//! plans by abstract query shape, and — when a group's join graph is
//! *cyclic*: triangles, cliques, the shapes pairwise plans are provably
//! bad at — adds a worst-case-optimal multiway step ([`wco`]), a leapfrog
//! triejoin over the store's sorted-prefix cursors. The greedy builder
//! ("most bound positions, then smallest base count", per-row probes
//! only) plans single patterns and OPTIONAL blocks, and whole queries
//! under [`Engine::Greedy`], the reference the differential suites
//! compare the other two engines against.
//!
//! Before any plan work, an algebra rewrite pass ([`algebra`]) folds
//! `FILTER(?v = <iri>)` equalities into pattern constants, reorders
//! UNION/OPTIONAL blocks cheapest-first, and prunes never-observed
//! variables from the row layout; [`eval`] does everything around the
//! joins (row layout, post-filters, aggregation, ordering, decode).

pub mod algebra;
pub mod ast;
pub mod dist;
pub mod eval;
pub mod parser;
pub mod plan;
pub mod results;
pub mod wco;

pub use ast::{Aggregate, Expr, Query, QueryForm, TermOrVar, TriplePattern};
pub use dist::{
    compose_degraded, merge_coverage, scan_patterns, slice_deadline, ScanPattern, ShardOutcome,
};
pub use eval::{
    evaluate, evaluate_budgeted, evaluate_traced, evaluate_with, BudgetedResult, QueryError,
};
pub use parser::parse_query;
pub use plan::{plan_cache_stats, Engine, Plan, PlanOp, PlanStep};
pub use results::{QueryResult, SolutionTable};
pub use wodex_obs::{QueryTrace, Stage};
pub use wodex_resilience::{Budget, DegradeReason, Degraded};

use wodex_store::TripleStore;

/// Parses and evaluates a query in one call.
pub fn query(store: &TripleStore, text: &str) -> Result<QueryResult, QueryError> {
    let q = parse_query(text).map_err(QueryError::Parse)?;
    evaluate(store, &q)
}

/// Parses and evaluates a query under a [`Budget`] in one call.
///
/// Over-budget evaluation does not error: the result comes back flagged
/// [`Degraded`] with the reason and an estimate of the fraction of the
/// search space covered. An unlimited budget gives results bit-identical
/// to [`query`].
pub fn query_budgeted(
    store: &TripleStore,
    text: &str,
    budget: &Budget,
) -> Result<BudgetedResult, QueryError> {
    let q = parse_query(text).map_err(QueryError::Parse)?;
    evaluate_budgeted(store, &q, budget)
}

/// [`query_budgeted`] recording per-stage timings into `trace`: the parse
/// stage is timed here, the evaluation stages (plan, BGP probe, filter,
/// decode) inside the engine. Serialization is the caller's stage — the
/// engine never sees the output bytes.
pub fn query_traced(
    store: &TripleStore,
    text: &str,
    budget: &Budget,
    trace: &QueryTrace,
) -> Result<BudgetedResult, QueryError> {
    let q = {
        let _parse_span = trace.span(Stage::Parse);
        parse_query(text).map_err(QueryError::Parse)?
    };
    evaluate_traced(store, &q, budget, trace)
}

/// [`query_traced`] with an explicit [`Engine`] — the serving layer's
/// entry point for its `engine=` selector, and the differential suites'.
pub fn query_traced_with(
    store: &TripleStore,
    text: &str,
    budget: &Budget,
    trace: &QueryTrace,
    engine: Engine,
) -> Result<BudgetedResult, QueryError> {
    let q = {
        let _parse_span = trace.span(Stage::Parse);
        parse_query(text).map_err(QueryError::Parse)?
    };
    evaluate_with(store, &q, budget, trace, engine)
}
