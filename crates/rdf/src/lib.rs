//! # wodex-rdf — RDF data model substrate
//!
//! The foundation of the `wodex` framework: a self-contained implementation
//! of the RDF data model as used throughout the Web of (Linked) Data.
//!
//! The survey this project reproduces (Bikakis & Sellis, *Exploration and
//! Visualization in the Web of Big Linked Data*, LWDM/EDBT 2016) assumes a
//! working RDF toolchain under every system it catalogs. Since mature Rust
//! RDF crates are not assumed available, this crate provides, from scratch:
//!
//! * RDF **terms** — IRIs, blank nodes, plain/typed/language-tagged
//!   literals ([`term`]).
//! * **Typed values** — extraction of numeric / temporal / boolean /
//!   spatial values from literals, the basis for the data-type detection of
//!   the survey's Table 1 ([`value`]).
//! * A **dictionary** interning terms to dense `u32` ids, the encoding used
//!   by the store and every downstream index ([`dictionary`]).
//! * **Triples** and in-memory **graphs** ([`triple`], [`graph`]).
//! * **N-Triples** and **Turtle** parsing and serialization ([`ntriples`],
//!   [`turtle`]) over **one term lexer** ([`lex`]): a cursor over `&str`
//!   whose productions — IRI reference, blank-node label, quoted string,
//!   language tag, number, prefixed name — return slices of the input and
//!   a typed error with a byte offset. `wodex-sparql` tokenizes with the
//!   same cursor, so a term is spelled, escaped and decoded (UTF-8, never
//!   byte by byte) the same way in a dump, a `POST /data` body and a query.
//! * Well-known **vocabularies** (rdf, rdfs, xsd, owl, foaf, qb, geo,
//!   dcterms) ([`vocab`]).
//! * Dataset **statistics** — the "Statistics" feature column of Table 1
//!   ([`stats`]).
//! * **Schema extraction** — the `rdfs:subClassOf` class hierarchy with
//!   per-class instance counts, the substrate of every §3.5 ontology
//!   visualization ([`schema`]).

pub mod dictionary;
pub mod error;
pub mod graph;
pub mod lex;
pub mod ntriples;
pub mod schema;
pub mod stats;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod value;
pub mod vocab;

pub use dictionary::{TermDict, TermId};
pub use error::RdfError;
pub use graph::Graph;
pub use schema::ClassHierarchy;
pub use term::{BlankNode, Iri, Literal, Term};
pub use triple::Triple;
pub use value::Value;
