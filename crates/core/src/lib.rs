//! # wodex-core — the unified exploration & visualization framework
//!
//! This crate assembles the substrates into the system the survey's §4
//! calls for: a Web-of-Data exploration and visualization framework that
//! treats **scalability and performance as vital requirements** —
//! approximation-first visualization, incremental computation, adaptive
//! indexing, bounded memory, and user guidance, behind one façade.
//!
//! ```
//! use wodex_core::Explorer;
//!
//! let ttl = r#"
//! @prefix ex: <http://example.org/> .
//! ex:athens a ex:City ; ex:population 664046 .
//! ex:sparta a ex:City ; ex:population 35259 .
//! "#;
//! let mut ex = Explorer::from_turtle(ttl).unwrap();
//! let view = ex.visualize("http://example.org/population");
//! assert!(view.svg.contains("<svg"));
//! let r = ex.sparql("SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://example.org/City> }").unwrap();
//! assert_eq!(r.table().unwrap().len(), 1);
//! ```

mod cache;
mod error;
mod explorer;

pub use cache::ViewCache;
pub use error::WodexError;
pub use explorer::{sampled_coverage, Explorer, GraphView};
pub use wodex_sparql::{Budget, BudgetedResult, DegradeReason, Degraded};
