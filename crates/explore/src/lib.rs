//! # wodex-explore — the exploration layer
//!
//! §3.1 of the survey catalogs what WoD browsers and exploratory systems
//! *do*: faceted navigation (/facet \[62\], gFacet \[57\], Humboldt \[86\]),
//! keyword search + object focus + path traversal (VisiNav \[53\]),
//! resource-centric browsing with link following (Tabulator \[21\], LodLive
//! \[31\]), and multi-pivot exploration (Visor \[110\]). §2 adds the
//! user-assistance requirements: discovering *interesting* data regions
//! \[37\] and *explaining* trends and anomalies (Scorpion \[141\]).
//!
//! * [`index`] — the shared, id-encoded [`ExploreIndex`]: built once per
//!   dataset from the encoded store, read by every session.
//! * [`facets`] — facet extraction, counts, conjunctive refinement.
//! * [`search`] — an inverted index over labels/literals with ranked
//!   keyword lookup.
//! * [`browse`] — resource views (forward + backward properties), link
//!   following, multi-pivot neighborhoods.
//! * [`session`] — the overview→zoom→filter→details-on-demand state
//!   machine \[118\] with a full operation log and undo: a log and one
//!   bitset per step over the shared index.
//! * [`interest`] — interest-area discovery over numeric properties
//!   (density/deviation scoring — the Explore-by-Example flavor).
//! * [`explain`] — aggregate-anomaly explanation (Scorpion-style
//!   predicate search).
//! * [`relfind`] — RelFinder-style \[58\] shortest-path relationship
//!   discovery between two resources.

pub mod browse;
pub mod explain;
pub mod facets;
pub mod index;
pub mod interest;
pub mod relfind;
pub mod search;
pub mod session;

pub use browse::ResourceView;
pub use facets::FacetEngine;
pub use index::{ExploreIndex, NumericColumn};
pub use search::SearchIndex;
pub use session::{ExplorationSession, Operation};
