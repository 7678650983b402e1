//! Resource-centric browsing.
//!
//! The original WoD-browser interaction (§3.1): show one resource as its
//! property-value pairs — forward *and* backward (what links here), follow
//! links to neighboring resources (Tabulator \[21\], LodLive \[31\]), and keep
//! several *pivot* resources in focus at once with their shared
//! neighborhood (Visor's multi-pivot exploration \[110\]).

use std::collections::BTreeSet;
use wodex_rdf::vocab::rdfs;
use wodex_rdf::{Graph, Term, Triple};

/// A property-value row of a resource view.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyRow {
    /// The property IRI (abbreviated for display by the caller).
    pub predicate: String,
    /// The value term.
    pub value: Term,
    /// False for backward rows (`value predicate THIS`).
    pub forward: bool,
}

/// The browsing view of one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceView {
    /// The focused resource.
    pub resource: Term,
    /// Its `rdfs:label`, when present.
    pub label: Option<String>,
    /// Forward and backward property rows.
    pub rows: Vec<PropertyRow>,
}

impl ResourceView {
    /// Builds the view of `resource` (the Disco/Tabulator table): its own
    /// triples as forward rows in `(predicate, value)` order, then the
    /// triples of other subjects pointing at it as backward rows in
    /// `(subject, predicate)` order.
    ///
    /// Forward rows are a range read; a [`Graph`] has no object index, so
    /// backward rows cost a scan — [`crate::ExploreIndex::details`] is
    /// the O(degree) form of the same view.
    pub fn of(graph: &Graph, resource: &Term) -> ResourceView {
        let row = |predicate: &Term, value: &Term, forward: bool| {
            Some(PropertyRow {
                predicate: predicate.as_iri()?.as_str().to_string(),
                value: value.clone(),
                forward,
            })
        };
        let mut rows: Vec<PropertyRow> = graph
            .triples_for_subject(resource)
            .filter_map(|t| row(&t.predicate, &t.object, true))
            .collect();
        let label = rows
            .iter()
            .filter(|r| r.predicate == rdfs::LABEL)
            .find_map(|r| r.value.as_literal())
            .map(|l| l.lexical().to_string());
        rows.extend(
            graph
                .iter()
                .filter(|t| &t.object == resource && &t.subject != resource)
                .filter_map(|t| row(&t.predicate, &t.subject, false)),
        );
        ResourceView {
            resource: resource.clone(),
            label,
            rows,
        }
    }

    /// The resources this view links to (forward) or is linked from
    /// (backward) — the "follow a link" affordance.
    pub fn links(&self) -> Vec<&Term> {
        self.rows
            .iter()
            .filter(|r| r.value.is_resource())
            .map(|r| &r.value)
            .collect()
    }

    /// Renders the property table as text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {}",
            self.label
                .clone()
                .unwrap_or_else(|| self.resource.to_string())
        );
        for r in &self.rows {
            let arrow = if r.forward { "→" } else { "←" };
            let _ = writeln!(
                out,
                "  {arrow} {} {}",
                wodex_rdf::vocab::abbreviate(&r.predicate),
                r.value
            );
        }
        out
    }
}

/// Multi-pivot exploration (Visor \[110\]): a set of focus resources plus
/// the paths between them.
pub struct MultiPivot {
    pivots: Vec<Term>,
}

impl MultiPivot {
    /// Starts with no pivots.
    pub fn new() -> MultiPivot {
        MultiPivot { pivots: Vec::new() }
    }

    /// Adds a pivot (deduplicated).
    pub fn pivot(&mut self, resource: Term) {
        if !self.pivots.contains(&resource) {
            self.pivots.push(resource);
        }
    }

    /// The current pivots.
    pub fn pivots(&self) -> &[Term] {
        &self.pivots
    }

    /// The 1-hop neighborhood union of all pivots.
    pub fn neighborhood(&self, graph: &Graph) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for p in &self.pivots {
            for t in graph.iter() {
                if &t.subject == p && t.object.is_resource() {
                    out.insert(t.object.clone());
                }
                if &t.object == p {
                    out.insert(t.subject.clone());
                }
            }
        }
        out
    }

    /// Connections: triples whose both endpoints are pivots or pivot
    /// neighbors — the RelFinder-ish "what relates my pivots" view \[58\].
    pub fn connections(&self, graph: &Graph) -> Vec<Triple> {
        let mut scope = self.neighborhood(graph);
        scope.extend(self.pivots.iter().cloned());
        graph
            .iter()
            .filter(|t| scope.contains(&t.subject) && scope.contains(&t.object))
            .cloned()
            .collect()
    }
}

impl Default for MultiPivot {
    fn default() -> Self {
        Self::new()
    }
}

/// Breadth-first link traversal from a start resource up to `depth` hops —
/// the LodLive "expand outward" exploration. Returns visited resources in
/// BFS order.
pub fn follow_links(graph: &Graph, start: &Term, depth: usize) -> Vec<Term> {
    let mut visited: BTreeSet<Term> = BTreeSet::new();
    let mut order = Vec::new();
    let mut frontier = vec![start.clone()];
    visited.insert(start.clone());
    order.push(start.clone());
    for _ in 0..depth {
        let mut next = Vec::new();
        for r in &frontier {
            for t in graph.iter() {
                let neighbor = if &t.subject == r && t.object.is_resource() {
                    Some(t.object.clone())
                } else if &t.object == r {
                    Some(t.subject.clone())
                } else {
                    None
                };
                if let Some(n) = neighbor {
                    if visited.insert(n.clone()) {
                        order.push(n.clone());
                        next.push(n);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::foaf;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::iri(
            "http://e.org/alice",
            rdfs::LABEL,
            Term::literal("Alice"),
        ));
        g.insert(Triple::iri(
            "http://e.org/alice",
            foaf::KNOWS,
            Term::iri("http://e.org/bob"),
        ));
        g.insert(Triple::iri(
            "http://e.org/bob",
            foaf::KNOWS,
            Term::iri("http://e.org/carol"),
        ));
        g.insert(Triple::iri(
            "http://e.org/carol",
            foaf::KNOWS,
            Term::iri("http://e.org/alice"),
        ));
        g.insert(Triple::iri(
            "http://e.org/alice",
            "http://e.org/age",
            Term::integer(30),
        ));
        g
    }

    #[test]
    fn resource_view_has_forward_and_backward_rows() {
        let g = graph();
        let v = ResourceView::of(&g, &Term::iri("http://e.org/alice"));
        assert_eq!(v.label.as_deref(), Some("Alice"));
        let fwd = v.rows.iter().filter(|r| r.forward).count();
        let bwd = v.rows.iter().filter(|r| !r.forward).count();
        assert_eq!(fwd, 3); // label, knows, age
        assert_eq!(bwd, 1); // carol knows alice
    }

    #[test]
    fn links_exclude_literals() {
        let g = graph();
        let v = ResourceView::of(&g, &Term::iri("http://e.org/alice"));
        let links = v.links();
        assert_eq!(links.len(), 2); // bob (fwd), carol (bwd)
        assert!(links.iter().all(|t| t.is_resource()));
    }

    #[test]
    fn render_mentions_directions() {
        let g = graph();
        let v = ResourceView::of(&g, &Term::iri("http://e.org/alice"));
        let text = v.render();
        assert!(text.contains("# Alice"));
        assert!(text.contains('→'));
        assert!(text.contains('←'));
        assert!(text.contains("foaf:knows"));
    }

    #[test]
    fn follow_links_bfs_depth() {
        let g = graph();
        let alice = Term::iri("http://e.org/alice");
        let one_hop = follow_links(&g, &alice, 1);
        assert_eq!(one_hop.len(), 3); // alice + bob + carol (carol links in)
        let zero = follow_links(&g, &alice, 0);
        assert_eq!(zero.len(), 1);
    }

    #[test]
    fn multi_pivot_neighborhood_and_connections() {
        let g = graph();
        let mut mp = MultiPivot::new();
        mp.pivot(Term::iri("http://e.org/alice"));
        mp.pivot(Term::iri("http://e.org/alice")); // dedup
        assert_eq!(mp.pivots().len(), 1);
        mp.pivot(Term::iri("http://e.org/carol"));
        let nbh = mp.neighborhood(&g);
        assert!(nbh.contains(&Term::iri("http://e.org/bob")));
        let conns = mp.connections(&g);
        // All three knows-edges connect pivots/neighbors.
        assert_eq!(
            conns
                .iter()
                .filter(|t| t.predicate == Term::iri(foaf::KNOWS))
                .count(),
            3
        );
    }

    #[test]
    fn view_of_unknown_resource_is_empty() {
        let g = graph();
        let v = ResourceView::of(&g, &Term::iri("http://e.org/nobody"));
        assert!(v.rows.is_empty());
        assert!(v.label.is_none());
    }
}
