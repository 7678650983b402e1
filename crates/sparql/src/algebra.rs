//! Algebra-level rewrites, run once per query before anything — in
//! particular before the plan-cache lookup, so cached plans key on the
//! rewritten shape (the `spargebra`/`sparopt` split: syntax-directed
//! rewrites here, cost-based operator choice in [`crate::plan`]).
//!
//! Three rewrites, each a strict win and each bag-semantics-preserving:
//!
//! * **Constant propagation** — a top-level `FILTER(?v = <iri>)` whose
//!   variable is observable nowhere else becomes a constant in every
//!   pattern position `?v` occupies. The store then probes an index
//!   prefix instead of scanning and post-filtering: the strongest form
//!   of filter pushdown, subsuming the per-row `IdEq` fast path.
//! * **Block reordering** — UNION alternatives and independent OPTIONAL
//!   blocks are reordered cheapest-estimate-first, so early-exit and
//!   per-row left joins touch small inputs first.
//! * **Projection pruning** — a variable that occurs exactly once and
//!   is observable nowhere (not projected, filtered, grouped, sorted,
//!   or aggregated) still multiplies row counts but its binding is
//!   never recorded — and therefore never decoded. Downstream,
//!   [`crate::plan::Slot::Any`] matches such positions without writing
//!   to the row.
//!
//! The pass returns a [`Rewritten`] that borrows the original query
//! when nothing changed — the common case costs two vector scans and
//! no allocation.

use crate::ast::{
    Aggregate, CompareOp, Expr, Projection, Query, QueryForm, TermOrVar, TriplePattern, Var,
};
use crate::eval::expr_vars;
use std::collections::{HashMap, HashSet};
use wodex_rdf::Term;
use wodex_store::{Pattern, TripleStore};

/// The outcome of the rewrite pass.
pub(crate) struct Rewritten {
    /// The rewritten query, or `None` when the original is unchanged.
    query: Option<Query>,
    /// Variables pruned from the row layout: they still match and still
    /// multiply rows, but bind nothing. Never contains a variable any
    /// observable surface (projection, filter, sort, group, aggregate)
    /// mentions.
    pub(crate) pruned: Vec<Var>,
}

impl Rewritten {
    /// The query evaluation should proceed with.
    pub(crate) fn query<'a>(&'a self, original: &'a Query) -> &'a Query {
        self.query.as_ref().unwrap_or(original)
    }
}

/// Runs every rewrite. `store` supplies the cardinality estimates the
/// reorderings sort by (constants only — no data is read).
pub(crate) fn rewrite(store: &TripleStore, q: &Query) -> Rewritten {
    if matches!(q.form, QueryForm::Describe(_)) {
        return Rewritten {
            query: None,
            pruned: Vec::new(),
        };
    }
    let mut work: Option<Query> = None;

    // --- constant propagation ---------------------------------------
    loop {
        let cur = work.as_ref().unwrap_or(q);
        let Some((fi, var, term)) = find_propagatable_eq(cur) else {
            break;
        };
        let mut next = cur.clone();
        next.filters.remove(fi);
        let subst = |tv: &mut TermOrVar| {
            if matches!(tv, TermOrVar::Var(v) if *v == var) {
                *tv = TermOrVar::Term(term.clone());
            }
        };
        let subst_block = |ps: &mut Vec<TriplePattern>| {
            for p in ps {
                subst(&mut p.s);
                subst(&mut p.p);
                subst(&mut p.o);
            }
        };
        subst_block(&mut next.patterns);
        for block in &mut next.unions {
            for alt in block {
                subst_block(alt);
            }
        }
        work = Some(next);
    }

    // --- UNION / OPTIONAL reorder by estimated cardinality -----------
    // Only when the column set is explicit: `SELECT *` derives its
    // column *order* from first occurrence, which reordering would
    // change observably.
    let explicit_columns = match &q.form {
        QueryForm::Select { projections, .. } => !projections.is_empty(),
        QueryForm::Ask => true,
        QueryForm::Describe(_) => false,
    };
    if explicit_columns {
        let cur = work.as_ref().unwrap_or(q);
        let block_est = |block: &[TriplePattern]| -> u64 {
            block
                .iter()
                .map(|p| pattern_estimate(store, p))
                .fold(0u64, u64::saturating_add)
        };
        let union_order_changes = cur.unions.iter().any(|block| {
            block
                .windows(2)
                .any(|w| block_est(&w[0]) > block_est(&w[1]))
        });
        // OPTIONAL blocks commute as bag operations only when no block
        // reads a variable another block introduced: any shared
        // variable must already be bound by the required/union part.
        let base_vars: HashSet<&str> = cur
            .patterns
            .iter()
            .chain(cur.unions.iter().flatten().flatten())
            .flat_map(|p| p.vars())
            .collect();
        let optionals_independent = (0..cur.optionals.len()).all(|i| {
            (i + 1..cur.optionals.len()).all(|j| {
                let vi: HashSet<&str> = cur.optionals[i].iter().flat_map(|p| p.vars()).collect();
                cur.optionals[j]
                    .iter()
                    .flat_map(|p| p.vars())
                    .all(|v| !vi.contains(v) || base_vars.contains(v))
            })
        });
        let optional_order_changes = optionals_independent
            && cur
                .optionals
                .windows(2)
                .any(|w| block_est(&w[0]) > block_est(&w[1]));
        if union_order_changes || optional_order_changes {
            let mut next = cur.clone();
            if union_order_changes {
                for block in &mut next.unions {
                    block.sort_by_key(|alt| block_est(alt));
                }
            }
            if optional_order_changes {
                next.optionals.sort_by_key(|b| block_est(b));
            }
            work = Some(next);
        }
    }

    // --- projection pruning ------------------------------------------
    let cur = work.as_ref().unwrap_or(q);
    let pruned = prunable_vars(cur);
    Rewritten {
        query: work,
        pruned,
    }
}

/// Constant-only cardinality estimate for one pattern (variables
/// unconstrained; a constant missing from the dictionary estimates 0).
fn pattern_estimate(store: &TripleStore, p: &TriplePattern) -> u64 {
    let mut missing = false;
    let mut enc = |tv: &TermOrVar| match tv {
        TermOrVar::Var(_) => None,
        TermOrVar::Term(t) => {
            let id = store.id_of(t);
            missing |= id.is_none();
            id
        }
    };
    let pat = Pattern {
        s: enc(&p.s),
        p: enc(&p.p),
        o: enc(&p.o),
    };
    if missing {
        0
    } else {
        store.estimate_pattern(pat) as u64
    }
}

/// Finds a filter of the shape `?v = <iri>` (or flipped) that can be
/// folded into the patterns: `?v` must be bound by the required BGP in
/// every combination, and observable nowhere — not projected (and the
/// projection list explicit), not in any other filter, sort, group or
/// aggregate, and absent from OPTIONAL blocks (where substitution
/// would change left-join matching for rows the filter later drops).
/// Returns `(filter index, variable, constant)`.
fn find_propagatable_eq(q: &Query) -> Option<(usize, Var, Term)> {
    let required: HashSet<&str> = q.patterns.iter().flat_map(|p| p.vars()).collect();
    let optional: HashSet<&str> = q
        .optionals
        .iter()
        .flatten()
        .flat_map(|p| p.vars())
        .collect();
    let observable = observable_vars(q)?;
    for (fi, f) in q.filters.iter().enumerate() {
        let Some((v, t)) = const_eq_parts(f) else {
            continue;
        };
        if !required.contains(v) || optional.contains(v) || observable.contains(v) {
            continue;
        }
        let in_other_filter = q
            .filters
            .iter()
            .enumerate()
            .any(|(j, other)| j != fi && expr_vars(other).iter().any(|ov| ov == v));
        if in_other_filter {
            continue;
        }
        return Some((fi, v.to_string(), t.clone()));
    }
    None
}

/// `?v = <iri or bnode>` / flipped, as a whole top-level filter.
/// Literals are excluded: filter `=` compares literals by *value*
/// (`"5"^^int = "05"^^int`), while a pattern constant matches by term
/// identity — folding would change the answer.
fn const_eq_parts(e: &Expr) -> Option<(&str, &Term)> {
    if let Expr::Compare(a, op, b) = e {
        if *op == CompareOp::Eq {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Var(v), Expr::Const(t)) | (Expr::Const(t), Expr::Var(v))
                    if matches!(t, Term::Iri(_) | Term::Blank(_)) =>
                {
                    return Some((v.as_str(), t));
                }
                _ => {}
            }
        }
    }
    None
}

/// The variables whose bindings the query's output can depend on, or
/// `None` when every variable is observable (`SELECT *`). Sort, group
/// and aggregate inputs count; filter variables are handled separately
/// by the callers.
fn observable_vars(q: &Query) -> Option<HashSet<&str>> {
    let mut out: HashSet<&str> = HashSet::new();
    match &q.form {
        QueryForm::Select { projections, .. } => {
            if projections.is_empty() {
                return None;
            }
            for p in projections {
                match p {
                    Projection::Var(v) => {
                        out.insert(v.as_str());
                    }
                    Projection::Aggregate(agg, _) => {
                        if let Some(v) = aggregate_input(agg) {
                            out.insert(v);
                        }
                    }
                }
            }
        }
        QueryForm::Ask => {}
        QueryForm::Describe(_) => return None,
    }
    out.extend(q.group_by.iter().map(|v| v.as_str()));
    out.extend(q.order_by.iter().map(|(v, _)| v.as_str()));
    Some(out)
}

fn aggregate_input(a: &Aggregate) -> Option<&str> {
    match a {
        Aggregate::Count(v) => v.as_deref(),
        Aggregate::Sum(v) | Aggregate::Avg(v) | Aggregate::Min(v) | Aggregate::Max(v) => {
            Some(v.as_str())
        }
    }
}

/// Variables safe to drop from the row layout: exactly one occurrence
/// across every pattern (required, union, optional — an occurrence
/// count of one means the variable never joins) and not observable by
/// any output surface or filter.
fn prunable_vars(q: &Query) -> Vec<Var> {
    let Some(observable) = observable_vars(q) else {
        return Vec::new();
    };
    fn count_block<'q>(ps: &'q [TriplePattern], occ: &mut HashMap<&'q str, usize>) {
        for p in ps {
            for tv in [&p.s, &p.p, &p.o] {
                if let TermOrVar::Var(v) = tv {
                    *occ.entry(v.as_str()).or_insert(0) += 1;
                }
            }
        }
    }
    let mut occurrences: HashMap<&str, usize> = HashMap::new();
    count_block(&q.patterns, &mut occurrences);
    for block in &q.unions {
        for alt in block {
            count_block(alt, &mut occurrences);
        }
    }
    for block in &q.optionals {
        count_block(block, &mut occurrences);
    }
    let filter_vars: HashSet<Var> = q.filters.iter().flat_map(expr_vars).collect();
    q.pattern_vars()
        .into_iter()
        .filter(|v| {
            occurrences.get(v.as_str()) == Some(&1)
                && !observable.contains(v.as_str())
                && !filter_vars.contains(v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use crate::results::QueryResult;
    use wodex_rdf::vocab::foaf;
    use wodex_rdf::{Graph, Triple};

    fn store() -> TripleStore {
        let mut g = Graph::new();
        for i in 0..20u32 {
            let s = format!("http://e.org/n{i}");
            let o = format!("http://e.org/n{}", (i + 1) % 20);
            g.insert(Triple::iri(&s, foaf::KNOWS, Term::iri(&o)));
            g.insert(Triple::iri(
                &s,
                "http://e.org/score",
                Term::literal(format!("{i}")),
            ));
        }
        TripleStore::from_graph(&g)
    }

    fn rows(store: &TripleStore, text: &str) -> Vec<String> {
        let _guard = crate::plan::plan_cache_test_lock();
        let q = parse_query(text).unwrap();
        let mut out: Vec<String> = match evaluate(store, &q).unwrap() {
            QueryResult::Solutions(t) => t.rows.iter().map(|r| format!("{r:?}")).collect(),
            other => vec![format!("{other:?}")],
        };
        out.sort();
        out
    }

    #[test]
    fn const_eq_filter_becomes_a_pattern_constant() {
        let st = store();
        let q = parse_query(
            "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             FILTER(?b = <http://e.org/n5>) }",
        )
        .unwrap();
        let rw = rewrite(&st, &q);
        let rq = rw.query(&q);
        assert!(rq.filters.is_empty(), "filter folded away");
        assert_eq!(
            rq.patterns[0].o,
            TermOrVar::Term(Term::iri("http://e.org/n5"))
        );
        // And end to end: the filtered form answers like the inline form.
        assert_eq!(
            rows(
                &st,
                "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
                 FILTER(?b = <http://e.org/n5>) }"
            ),
            rows(
                &st,
                "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> <http://e.org/n5> }"
            )
        );
    }

    #[test]
    fn const_eq_is_blocked_when_the_variable_is_observable() {
        let st = store();
        for text in [
            // Projected.
            "SELECT ?a ?b WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             FILTER(?b = <http://e.org/n5>) }",
            // SELECT * projects everything.
            "SELECT * WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             FILTER(?b = <http://e.org/n5>) }",
            // Mentioned by a second filter.
            "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             FILTER(?b = <http://e.org/n5>) FILTER(?b != <http://e.org/n6>) }",
        ] {
            let q = parse_query(text).unwrap();
            let rw = rewrite(&st, &q);
            assert!(
                rw.query(&q).filters.len() == q.filters.len(),
                "must not fold: {text}"
            );
        }
    }

    #[test]
    fn literal_equality_is_never_folded() {
        let st = store();
        let q = parse_query("SELECT ?a WHERE { ?a <http://e.org/score> ?s . FILTER(?s = \"5\") }")
            .unwrap();
        let rw = rewrite(&st, &q);
        assert_eq!(rw.query(&q).filters.len(), 1);
    }

    #[test]
    fn single_occurrence_unobservable_vars_are_pruned() {
        let st = store();
        let q = parse_query(
            "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             ?a <http://e.org/score> ?s }",
        )
        .unwrap();
        let rw = rewrite(&st, &q);
        let mut pruned = rw.pruned.clone();
        pruned.sort();
        assert_eq!(pruned, vec!["b".to_string(), "s".to_string()]);
        // Multiplicity is preserved: one row per (knows, score) pair.
        assert_eq!(
            rows(
                &st,
                "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
                 ?a <http://e.org/score> ?s }"
            )
            .len(),
            20
        );
    }

    #[test]
    fn join_filter_and_projection_vars_are_kept() {
        let st = store();
        let q = parse_query(
            "SELECT ?a WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             ?b <http://e.org/score> ?s . FILTER(?s > 3) }",
        )
        .unwrap();
        let rw = rewrite(&st, &q);
        assert!(
            rw.pruned.is_empty(),
            "?b joins, ?s is filtered, ?a projects"
        );
    }

    #[test]
    fn union_alternatives_reorder_cheapest_first() {
        let mut g = Graph::new();
        for i in 0..30u32 {
            g.insert(Triple::iri(
                &format!("http://e.org/n{i}"),
                "http://e.org/big",
                Term::iri("http://e.org/x"),
            ));
        }
        g.insert(Triple::iri(
            "http://e.org/n0",
            "http://e.org/small",
            Term::iri("http://e.org/x"),
        ));
        let st = TripleStore::from_graph(&g);
        let q = parse_query(
            "SELECT ?a WHERE { { ?a <http://e.org/big> ?x } UNION { ?a <http://e.org/small> ?x } }",
        )
        .unwrap();
        let rw = rewrite(&st, &q);
        let rq = rw.query(&q);
        let first = &rq.unions[0][0][0];
        assert_eq!(
            first.p,
            TermOrVar::Term(Term::iri("http://e.org/small")),
            "cheaper alternative moved first"
        );
        // Bag of rows is unchanged by the reorder.
        assert_eq!(
            rows(&st, "SELECT ?a WHERE { { ?a <http://e.org/big> ?x } UNION { ?a <http://e.org/small> ?x } }").len(),
            31
        );
    }
}
