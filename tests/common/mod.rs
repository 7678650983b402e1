//! What the differential suites share: the engine table
//! ([`Engine::ALL`]), the order-insensitive row fingerprint, the cyclic
//! fixture — and an oracle for the executor itself.
//!
//! The engine-vs-engine suites can only see where the engines *differ*;
//! all three run the same step loop, the same OPTIONAL left join and the
//! same early-limit rule, so a bug in that shared code answers wrongly
//! three times over and every differential stays green. [`oracle`] is
//! the check that shares nothing with it: a term-level brute-force
//! evaluator written on `TripleStore::match_decoded` and `Term` alone —
//! no compiled patterns, no row layout, no plans, no `wodex-exec`, not
//! the engine's expression evaluator — over the parsed query *before*
//! the algebra rewrites.

#![allow(dead_code)] // every suite uses its own subset of this module

use std::collections::BTreeMap;
use wodex::exec::with_thread_override;
use wodex::rdf::{Graph, Iri, Literal, Term, Triple, Value};
use wodex::sparql::ast::{CompareOp, Projection};
use wodex::sparql::{
    evaluate_with, parse_query, Budget, BudgetedResult, Expr, Query, QueryForm, QueryResult,
    QueryTrace, SolutionTable, TermOrVar, TriplePattern,
};
use wodex::store::TripleStore;

pub use wodex::sparql::Engine;

/// Evaluates `text` under `engine` and `budget`, untraced.
pub fn run(store: &TripleStore, text: &str, budget: &Budget, engine: Engine) -> BudgetedResult {
    let q = parse_query(text).expect("corpus parses");
    evaluate_with(store, &q, budget, &QueryTrace::disabled(), engine).expect("corpus evaluates")
}

/// Rows as a sorted multiset fingerprint (order-insensitive compare).
pub fn sorted_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = match r {
        QueryResult::Solutions(t) => t.rows.iter().map(|row| format!("{row:?}")).collect(),
        other => vec![format!("{other:?}")],
    };
    rows.sort();
    rows
}

/// A directed Zipf citation graph with `w` attributes: hubs make
/// directed triangles and small cliques plentiful — the shapes that
/// route through the multiway join.
pub fn cyclic_store(nodes: usize, arcs: usize, seed: u64) -> TripleStore {
    let mut g = Graph::new();
    for i in 0..nodes {
        g.insert(Triple::iri(
            &format!("http://c.org/e{i}"),
            "http://c.org/w",
            Term::integer((i % 97) as i64),
        ));
    }
    for (a, b) in wodex::synth::netgen::zipf_digraph(nodes, arcs, 1.0, seed) {
        g.insert(Triple::iri(
            &format!("http://c.org/e{a}"),
            "http://c.org/cites",
            Term::iri(format!("http://c.org/e{b}")),
        ));
    }
    TripleStore::from_graph(&g)
}

/// Cyclic shapes over [`cyclic_store`] plus the rewrites that ride
/// along: filters into the multiway group, a pruned spoke, a 4-clique
/// tournament.
pub const CYCLIC_CORPUS: &[&str] = &[
    // Triangle.
    "PREFIX c: <http://c.org/>\n\
     SELECT ?a ?b ?c WHERE { ?a c:cites ?b . ?b c:cites ?c . ?c c:cites ?a }",
    // Triangle with a pendant attribute and a pushed-down filter.
    "PREFIX c: <http://c.org/>\n\
     SELECT ?a ?b ?c WHERE { ?a c:cites ?b . ?b c:cites ?c . ?c c:cites ?a . \
     ?a c:w ?wa FILTER(?wa > 30) }",
    // Directed 4-cycle.
    "PREFIX c: <http://c.org/>\n\
     SELECT ?a ?c WHERE { ?a c:cites ?b . ?b c:cites ?c . ?c c:cites ?d . \
     ?d c:cites ?a }",
    // 4-clique tournament.
    "PREFIX c: <http://c.org/>\n\
     SELECT ?a ?b ?c ?d WHERE { ?a c:cites ?b . ?a c:cites ?c . ?a c:cites ?d . \
     ?b c:cites ?c . ?b c:cites ?d . ?c c:cites ?d }",
    // Triangle with a single-occurrence spoke: ?e is pruned but must
    // still multiply the bag.
    "PREFIX c: <http://c.org/>\n\
     SELECT ?a WHERE { ?a c:cites ?b . ?b c:cites ?c . ?c c:cites ?a . \
     ?a c:cites ?e }",
];

// ---------------------------------------------------------------------
// The oracle.
// ---------------------------------------------------------------------

/// One solution: variable name → term. An unbound variable is absent.
type Solution = BTreeMap<String, Term>;

/// What a pattern position holds under `row`: its constant, or the
/// variable's binding if it has one.
fn value_in<'a>(tv: &'a TermOrVar, row: &'a Solution) -> Option<&'a Term> {
    match tv {
        TermOrVar::Term(t) => Some(t),
        TermOrVar::Var(v) => row.get(v),
    }
}

/// Nested-loop join of `patterns`, in the order written, onto every row:
/// substitute what the row binds, ask the store, keep the matches that
/// agree on a variable the pattern repeats.
fn join(store: &TripleStore, mut rows: Vec<Solution>, patterns: &[TriplePattern]) -> Vec<Solution> {
    for p in patterns {
        let mut next = Vec::new();
        for row in &rows {
            let value = |tv| value_in(tv, row);
            // A constant the dictionary has never seen matches nothing.
            let Some(pat) = store.encode_pattern(value(&p.s), value(&p.p), value(&p.o)) else {
                continue;
            };
            'triples: for t in store.match_decoded(pat) {
                let mut extended = row.clone();
                for (tv, term) in [(&p.s, t.subject), (&p.p, t.predicate), (&p.o, t.object)] {
                    if let TermOrVar::Var(v) = tv {
                        match extended.get(v) {
                            Some(bound) if *bound != term => continue 'triples,
                            _ => extended.insert(v.clone(), term),
                        };
                    }
                }
                next.push(extended);
            }
        }
        rows = next;
    }
    rows
}

/// The numeric value of a term, if it has one.
fn numeric(t: &Term) -> Option<f64> {
    Value::from_literal(t.as_literal()?).as_f64()
}

/// Whether the oracle can judge this filter: `BOUND`, the connectives,
/// `CONTAINS`, and comparisons between variables and constants — numeric
/// by value, anything else for (in)equality only.
fn judgeable(e: &Expr) -> bool {
    match e {
        Expr::Bound(_) => true,
        Expr::Not(a) => judgeable(a),
        Expr::And(a, b) | Expr::Or(a, b) => judgeable(a) && judgeable(b),
        Expr::Compare(a, _, b) | Expr::Contains(a, b) => [a, b]
            .iter()
            .all(|x| matches!(x.as_ref(), Expr::Var(_) | Expr::Const(_))),
        _ => false,
    }
}

/// SPARQL's three-valued filter logic over a [`judgeable`] expression:
/// `None` is a type error (an unbound variable, an ordering between
/// non-numbers), which a FILTER treats as false.
fn holds(e: &Expr, row: &Solution) -> Option<bool> {
    let term = |x: &Expr| match x {
        Expr::Var(v) => row.get(v).cloned(),
        Expr::Const(t) => Some(t.clone()),
        _ => unreachable!("not judgeable"),
    };
    match e {
        Expr::Bound(v) => Some(row.contains_key(v)),
        Expr::Not(a) => holds(a, row).map(|b| !b),
        Expr::And(a, b) => match (holds(a, row), holds(b, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (holds(a, row), holds(b, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Compare(a, op, b) => {
            let (a, b) = (term(a)?, term(b)?);
            match (numeric(&a), numeric(&b), op) {
                (Some(x), Some(y), CompareOp::Eq) => Some(x == y),
                (Some(x), Some(y), CompareOp::Ne) => Some(x != y),
                (Some(x), Some(y), CompareOp::Lt) => Some(x < y),
                (Some(x), Some(y), CompareOp::Le) => Some(x <= y),
                (Some(x), Some(y), CompareOp::Gt) => Some(x > y),
                (Some(x), Some(y), CompareOp::Ge) => Some(x >= y),
                (_, _, CompareOp::Eq) => Some(a == b),
                (_, _, CompareOp::Ne) => Some(a != b),
                _ => None,
            }
        }
        Expr::Contains(a, b) => {
            // A literal's lexical form or an IRI's text; a blank node has neither.
            let text = |t: Term| match t {
                Term::Literal(l) => Some(l.lexical().to_string()),
                Term::Iri(i) => Some(i.as_str().to_string()),
                Term::Blank(_) => None,
            };
            Some(text(term(a)?)?.contains(&text(term(b)?)?))
        }
        _ => unreachable!("not judgeable"),
    }
}

/// The answer to `q` before `LIMIT`/`OFFSET` (and in no particular
/// order: bags compare sorted), or `None` when the query is outside the
/// oracle's subset — BGP, UNION, OPTIONAL, [`judgeable`] filters,
/// `SELECT [DISTINCT]` of variables, `ASK`.
pub fn oracle(store: &TripleStore, q: &Query) -> Option<QueryResult> {
    if !q.group_by.is_empty() || !q.filters.iter().all(judgeable) {
        return None;
    }
    let columns: Vec<String> = match &q.form {
        QueryForm::Ask => Vec::new(),
        QueryForm::Describe(_) => return None,
        QueryForm::Select { projections, .. } if projections.is_empty() => q.pattern_vars(),
        QueryForm::Select { projections, .. } => projections
            .iter()
            .map(|p| match p {
                Projection::Var(v) => Some(v.clone()),
                Projection::Aggregate(..) => None,
            })
            .collect::<Option<_>>()?,
    };
    let mut rows = join(store, vec![Solution::new()], &q.patterns);
    // A UNION block is the bag union of its alternatives joined in.
    for block in &q.unions {
        rows = block
            .iter()
            .flat_map(|alt| join(store, rows.clone(), alt))
            .collect();
    }
    // An OPTIONAL block extends each row it can and keeps the others.
    for block in &q.optionals {
        rows = rows
            .into_iter()
            .flat_map(|row| {
                let matched = join(store, vec![row.clone()], block);
                if matched.is_empty() {
                    vec![row]
                } else {
                    matched
                }
            })
            .collect();
    }
    rows.retain(|row| q.filters.iter().all(|f| holds(f, row) == Some(true)));
    if q.form == QueryForm::Ask {
        return Some(QueryResult::Boolean(!rows.is_empty()));
    }
    let mut rows: Vec<Vec<Option<Term>>> = rows
        .iter()
        .map(|row| columns.iter().map(|c| row.get(c).cloned()).collect())
        .collect();
    if matches!(q.form, QueryForm::Select { distinct: true, .. }) {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(format!("{r:?}")));
    }
    Some(QueryResult::Solutions(SolutionTable { columns, rows }))
}

/// Holds every [`Engine::ALL`] member, at 1 and 4 threads, to the
/// [`oracle`] on every query of `corpus`; returns how many of them the
/// oracle could judge. A sliced query (`LIMIT`/`OFFSET`) may return
/// *any* rows of the full bag, but exactly as many as the slice leaves.
pub fn engines_agree_with_the_oracle(store: &TripleStore, corpus: &[&str]) -> usize {
    let mut judged = 0;
    for text in corpus {
        let q = parse_query(text).expect("corpus parses");
        let Some(want) = oracle(store, &q) else {
            continue;
        };
        judged += 1;
        let want = sorted_rows(&want);
        let sliced = q.limit.is_some() || q.offset > 0;
        let slice_len = want
            .len()
            .saturating_sub(q.offset)
            .min(q.limit.unwrap_or(usize::MAX));
        for threads in [1usize, 4] {
            for engine in Engine::ALL {
                let got = with_thread_override(threads, || {
                    run(store, text, &Budget::unlimited(), engine)
                });
                assert!(got.degraded.is_none());
                let got = sorted_rows(&got.result);
                let at = format!("{engine:?} at {threads} thread(s) on:\n{text}");
                if !sliced {
                    assert_eq!(got, want, "the oracle disagrees with {at}");
                    continue;
                }
                assert_eq!(got.len(), slice_len, "wrong slice length from {at}");
                let mut pool = want.clone();
                for row in &got {
                    let i = pool
                        .iter()
                        .position(|w| w == row)
                        .unwrap_or_else(|| panic!("{row} is not in the full bag: {at}"));
                    pool.swap_remove(i);
                }
            }
        }
    }
    judged
}

/// Eight hand-written triples for the rows that probe the code *above*
/// the engines. Subjects sort `s1 < s2 < s3`, and the first has no
/// optional match: a query that looks at one required row only sees
/// the wrong one. Four `t:label` triples beside them hold the terms
/// [`UNICODE_ROWS`] spell.
pub fn tiny_store() -> TripleStore {
    let iri = |local: &str| format!("http://t.org/{local}");
    let mut g = Graph::new();
    let xsd_string = Iri::new(wodex::rdf::vocab::xsd::STRING);
    for (s, label) in [
        ("café", Literal::string("café")),
        ("café", Literal::lang_string("café au lait", "fr")),
        ("naïve", Literal::typed("naïve", xsd_string)),
        ("s1", Literal::string("a \"q\" \\ 😀")),
    ] {
        g.insert(Triple::iri(&iri(s), &iri("label"), Term::Literal(label)));
    }
    for (s, p, o) in [
        ("s1", "p", "o1"),
        ("s2", "p", "o2"),
        ("s3", "p", "o3"),
        ("s2", "q", "x2"),
        ("s3", "q", "x3"),
        ("x3", "r", "y3"),
        ("s3", "t", "y3"),
        ("s1", "t", "y3"),
    ] {
        g.insert(Triple::iri(&iri(s), &iri(p), Term::iri(iri(o))));
    }
    TripleStore::from_graph(&g)
}

/// Rows over [`tiny_store`]: ASK in every position the early-limit rule
/// has to get right, and OPTIONAL blocks whose left rows bind different
/// variables.
pub const TINY_ROWS: &[&str] = &[
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o }",
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o . ?s t:q ?x . ?x t:r ?y }",
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o . ?o t:p ?z }",
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o OPTIONAL { ?s t:q ?x } }",
    // One required row is not enough: the first has no ?x.
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o OPTIONAL { ?s t:q ?x } FILTER(BOUND(?x)) }",
    "PREFIX t: <http://t.org/> ASK { ?s t:p ?o OPTIONAL { ?s t:q ?x } FILTER(!BOUND(?x)) }",
    "PREFIX t: <http://t.org/> ASK { ?s t:q ?x OPTIONAL { ?s t:p ?o } FILTER(!BOUND(?o)) }",
    "PREFIX t: <http://t.org/> \
     SELECT ?s ?x WHERE { ?s t:p ?o OPTIONAL { ?s t:q ?x } FILTER(BOUND(?x)) }",
    // The second block meets s1 with ?x unbound (any ?x will do) and
    // s2, s3 with it bound: three left rows, two bound masks.
    "PREFIX t: <http://t.org/> \
     SELECT * WHERE { ?s t:p ?o OPTIONAL { ?s t:q ?x } OPTIONAL { ?x t:r ?y . ?s t:t ?y } }",
    "PREFIX t: <http://t.org/> \
     SELECT ?s ?y WHERE { ?s t:p ?o OPTIONAL { ?s t:q ?x } OPTIONAL { ?x t:r ?y . ?s t:t ?y } \
     FILTER(BOUND(?y) && !BOUND(?x)) }",
    "PREFIX t: <http://t.org/> \
     SELECT ?s WHERE { { ?s t:q ?x } UNION { ?s t:t ?y } OPTIONAL { ?s t:p ?o } } LIMIT 3",
];

/// Rows over [`tiny_store`] whose constants are not ASCII, or are spelled
/// with escapes — in subject, object and FILTER position — each with the
/// number of solutions it has. The oracle evaluates the same parsed
/// query as the engines, so it takes the count to see a constant the
/// parser did not read as written: all of them would agree on no rows.
pub const UNICODE_ROWS: &[(&str, usize)] = &[
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s WHERE { ?s t:label "café" }"#,
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s WHERE { ?s t:label "caf\u00E9" }"#,
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s WHERE { ?s t:label 'caf\U000000e9 au lait'@fr }"#,
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s WHERE { ?s t:label "a \"q\" \\ \U0001F600" }"#,
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
           SELECT ?s WHERE { ?s t:label "naïve"^^xsd:string }"#,
        1,
    ),
    (
        r#"SELECT ?s WHERE
           { ?s <http://t.org/label> "naïve"^^<http://www.w3.org/2001/XMLSchema#string> }"#,
        1,
    ),
    (
        "PREFIX t: <http://t.org/> SELECT ?o WHERE { <http://t.org/café> t:label ?o }",
        2,
    ),
    (
        "PREFIX t: <http://t.org/> SELECT ?o WHERE { t:naïve t:label ?o }",
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s WHERE { ?s t:label ?o FILTER(?o = "café au lait"@fr) }"#,
        1,
    ),
    (
        r#"PREFIX t: <http://t.org/> SELECT ?s ?o WHERE { ?s t:label ?o FILTER(CONTAINS(?o, "é")) }"#,
        2,
    ),
    (
        "PREFIX t: <http://t.org/> SELECT ?o WHERE { ?s t:label ?o FILTER(?s = <http://t.org/café>) }",
        2,
    ),
    (
        "PREFIX t: <http://t.org/> \
         SELECT ?s WHERE { ?s t:label ?o FILTER(CONTAINS(?s, \"ï\") && ?o != \"café\") }",
        1,
    ),
];
