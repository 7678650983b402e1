//! Planner-vs-greedy equivalence: the PR 5 correctness contract.
//!
//! The cost-based planner (`wodex::sparql::plan`) may pick any join
//! order and any operator mix (merge / hash / nested-loop), but the
//! *bag of solutions* must be exactly the greedy reference engine's —
//! at every thread count, with and without budgets. Row order is not
//! part of the contract (SPARQL leaves it unspecified without
//! `ORDER BY`), so results are compared as sorted multisets.
//!
//! What the engines share — the step loop, the OPTIONAL left join, the
//! early-limit rule — no engine-vs-engine comparison can see; the last
//! test holds all three to the brute-force oracle in `common`.

mod common;

use common::{cyclic_store, run, sorted_rows, Engine, CYCLIC_CORPUS};
use wodex::exec::with_thread_override;
use wodex::sparql::{evaluate_with, parse_query, Budget, QueryTrace};
use wodex::store::TripleStore;
use wodex::synth::dbpedia::{self, DbpediaConfig};

/// Seeded synthetic store exercising skewed predicate distributions.
fn corpus_store(entities: usize, seed: u64) -> TripleStore {
    TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities,
        seed,
        ..Default::default()
    }))
}

/// A query corpus covering every operator the planner can choose:
/// multi-pattern stars and chains (merge/hash joins), a disconnected
/// group (nested loop), unions (multiple combos per query), optionals
/// (greedy per-row path downstream of planned combos), filters both
/// specializable (`IdEq`/`ValueCmp`) and general, plus aggregates.
const CORPUS: &[&str] = &[
    // Two-pattern chain join.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s a dbo:City . ?s dbo:population ?p }",
    // Three-pattern star with a pushed-down numeric filter.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
     SELECT ?s ?p ?l WHERE { ?s a dbo:City . ?s dbo:population ?p . \
     ?s rdfs:label ?l FILTER(?p > 1000) }",
    // Chain over linksTo: join variable on the object position.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?a ?b WHERE { ?a dbo:linksTo ?b . ?b dbo:population ?p \
     FILTER(?p >= 0) }",
    // Disconnected groups force a nested-loop (cross) step.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?x WHERE { ?s a dbo:City . ?x dbo:area ?a FILTER(?a > 9000) }",
    // UNION: every combo is planned independently.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s dbo:population ?p . \
     { ?s a dbo:City } UNION { ?s a dbo:Country } }",
    // OPTIONAL downstream of a planned required group.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p ?b WHERE { ?s a dbo:City . ?s dbo:population ?p \
     OPTIONAL { ?s dbo:linksTo ?b } }",
    // IRI (in)equality filters take the interned-id fast path.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?a ?b WHERE { ?a dbo:linksTo ?b . ?a a ?t \
     FILTER(?b != <http://dbp.example.org/resource/e0>) }",
    // Aggregate over a planned join.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT (COUNT(*) AS ?n) (AVG(?p) AS ?avg) WHERE { \
     ?s a dbo:City . ?s dbo:population ?p }",
    // ORDER BY pins the output order on top of the planned rows.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s a dbo:City . ?s dbo:population ?p } \
     ORDER BY DESC(?p) ?s",
    // DISTINCT projection over a join.
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT DISTINCT ?t WHERE { ?a dbo:linksTo ?b . ?a a ?t }",
];

#[test]
fn planned_results_equal_greedy_results_at_one_and_four_threads() {
    let store = corpus_store(300, 42);
    for threads in [1usize, 4] {
        with_thread_override(threads, || {
            for q in CORPUS {
                let greedy = run(&store, q, &Budget::unlimited(), Engine::Greedy);
                let planned = run(&store, q, &Budget::unlimited(), Engine::Wco);
                assert!(greedy.degraded.is_none() && planned.degraded.is_none());
                assert_eq!(
                    sorted_rows(&greedy.result),
                    sorted_rows(&planned.result),
                    "planner changed the answer at {threads} thread(s) for:\n{q}"
                );
            }
        });
    }
}

#[test]
fn planned_results_survive_an_unsorted_tail() {
    // Streaming inserts leave triples in the store's unsorted tail,
    // which disables merge joins and the sorted fast path — the planner
    // must stay correct on the slow paths too.
    let mut store = corpus_store(200, 7);
    let extra = dbpedia::generate(&DbpediaConfig {
        entities: 40,
        seed: 8,
        ..Default::default()
    });
    for t in extra.iter() {
        store.insert(t);
    }
    assert!(store.tail_len() > 0, "inserts must land in the tail");
    for q in CORPUS {
        let greedy = run(&store, q, &Budget::unlimited(), Engine::Greedy);
        let planned = run(&store, q, &Budget::unlimited(), Engine::Wco);
        assert_eq!(
            sorted_rows(&greedy.result),
            sorted_rows(&planned.result),
            "planner changed the answer on a tailed store for:\n{q}"
        );
    }
}

#[test]
fn generous_budget_is_bit_identical_to_unlimited() {
    let store = corpus_store(300, 42);
    let generous = Budget::unlimited().with_deadline(std::time::Duration::from_secs(600));
    for q in CORPUS {
        let unlimited = run(&store, q, &Budget::unlimited(), Engine::Wco);
        let budgeted = run(&store, q, &generous, Engine::Wco);
        assert!(budgeted.degraded.is_none(), "generous budget must not trip");
        // Same code path modulo polling: identical rows in identical order.
        assert_eq!(
            format!("{:?}", unlimited.result),
            format!("{:?}", budgeted.result),
            "budget polling changed planned results for:\n{q}"
        );
    }
}

#[test]
fn expired_deadline_degrades_planned_and_greedy_the_same_way() {
    let store = corpus_store(300, 42);
    for q in CORPUS {
        let budget = Budget::unlimited().with_expired_deadline();
        let greedy = run(&store, q, &budget, Engine::Greedy);
        let planned = run(&store, q, &budget, Engine::Wco);
        let dg = greedy.degraded.expect("greedy must degrade");
        let dp = planned.degraded.expect("planned must degrade");
        assert_eq!(dg.reason, dp.reason);
        // Both trip before the first chunk of the first stage and then
        // finish in grace mode — the surviving row bags must agree.
        assert_eq!(
            sorted_rows(&greedy.result),
            sorted_rows(&planned.result),
            "degraded answers diverged for:\n{q}"
        );
    }
}

#[test]
fn cancellation_degrades_planned_queries() {
    let store = corpus_store(300, 42);
    let budget = Budget::unlimited().with_row_cap(u64::MAX);
    budget.cancel();
    let planned = run(&store, CORPUS[1], &budget, Engine::Wco);
    assert_eq!(
        planned.degraded.expect("cancelled").reason,
        wodex::sparql::DegradeReason::Cancelled
    );
}

#[test]
fn row_cap_yields_a_sound_subset_under_the_planner() {
    let store = corpus_store(300, 42);
    let q = CORPUS[0];
    let full: std::collections::HashSet<String> =
        sorted_rows(&run(&store, q, &Budget::unlimited(), Engine::Wco).result)
            .into_iter()
            .collect();
    let budget = Budget::unlimited().with_row_cap(50);
    let capped = run(&store, q, &budget, Engine::Wco);
    let degraded = capped.degraded.expect("row cap must trip");
    let rows = sorted_rows(&capped.result);
    assert!(rows.len() < full.len());
    for row in &rows {
        assert!(full.contains(row), "degraded rows must be real solutions");
    }
    // And the capped answer is thread-invariant (chunk decomposition
    // depends on input length, never thread count).
    let again = with_thread_override(1, || {
        sorted_rows(
            &run(
                &store,
                q,
                &Budget::unlimited().with_row_cap(50),
                Engine::Wco,
            )
            .result,
        )
    });
    let par = with_thread_override(4, || {
        sorted_rows(
            &run(
                &store,
                q,
                &Budget::unlimited().with_row_cap(50),
                Engine::Wco,
            )
            .result,
        )
    });
    assert_eq!(again, par, "capped planned results depend on thread count");
    // A row cap cuts a deterministic prefix: the same rows and the same
    // coverage on every run, at every thread count.
    assert_capped_answer_is_fixed(&store, q, 50, (rows.len(), degraded.coverage));
    assert_eq!((rows.len(), degraded.coverage), PLANNER_CAPPED);
}

/// What `row_cap=50` leaves of `CORPUS[0]` over `corpus_store(300, 42)`,
/// as (row count, coverage) — a function of the cap, the chunk size and
/// the plan, not of timing: the scan is one item, the join over its 300
/// rows is admitted one 256-row chunk, and 101 of those are cities.
const PLANNER_CAPPED: (usize, f64) = (101, 256.0 / 300.0);

/// Re-runs a capped query at 1, 2, 4 and 8 threads, several times each:
/// every run must return `want` = (row count, coverage) and the same bag.
fn assert_capped_answer_is_fixed(store: &TripleStore, q: &str, cap: u64, want: (usize, f64)) {
    let mut bags = std::collections::HashSet::new();
    for threads in [1usize, 2, 4, 8] {
        for _ in 0..5 {
            let capped = with_thread_override(threads, || {
                run(
                    store,
                    q,
                    &Budget::unlimited().with_row_cap(cap),
                    Engine::Wco,
                )
            });
            let rows = sorted_rows(&capped.result);
            let coverage = capped.degraded.expect("row cap must trip").coverage;
            assert_eq!((rows.len(), coverage), want, "at {threads} thread(s)");
            bags.insert(rows);
        }
    }
    assert_eq!(bags.len(), 1, "one capped bag at every thread count");
}

// ---------------------------------------------------------------------
// PR 6: the cyclic corpus. On cyclic pattern groups the planner hands
// the whole group to the worst-case-optimal multiway join; the contract
// triples: WCO ≡ pairwise ≡ greedy as sorted bags, at every thread
// count and under every degradation mode.
// ---------------------------------------------------------------------

#[test]
fn wco_equals_pairwise_and_greedy_at_one_and_four_threads() {
    let store = cyclic_store(200, 1600, 42);
    for threads in [1usize, 4] {
        with_thread_override(threads, || {
            for q in CYCLIC_CORPUS {
                let greedy = run(&store, q, &Budget::unlimited(), Engine::Greedy);
                let pairwise = run(&store, q, &Budget::unlimited(), Engine::Pairwise);
                let wco = run(&store, q, &Budget::unlimited(), Engine::Wco);
                let bag = sorted_rows(&wco.result);
                assert!(!bag.is_empty(), "cyclic corpus must match something:\n{q}");
                assert_eq!(
                    bag,
                    sorted_rows(&pairwise.result),
                    "wco vs pairwise diverged at {threads} thread(s) for:\n{q}"
                );
                assert_eq!(
                    bag,
                    sorted_rows(&greedy.result),
                    "wco vs greedy diverged at {threads} thread(s) for:\n{q}"
                );
            }
        });
    }
}

#[test]
fn wco_actually_engages_on_the_cyclic_corpus() {
    // Guards the corpus sizing against the runtime downgrade: if the
    // input were under MIN_WCO_INPUT the equivalence tests above would
    // silently compare pairwise against itself.
    let store = cyclic_store(200, 1600, 42);
    let q = parse_query(CYCLIC_CORPUS[0]).unwrap();
    let trace = QueryTrace::new();
    evaluate_with(&store, &q, &Budget::unlimited(), &trace, Engine::default()).unwrap();
    let steps = trace.plan_steps();
    assert_eq!(steps.len(), 1, "the whole group runs as one wco step");
    assert_eq!(steps[0].op, "wco");
}

#[test]
fn toggling_the_wco_option_cannot_serve_a_stale_plan() {
    // Engine selection is part of the plan-cache key: a wco run warming
    // the cache must not hand its plan to a wco-disabled run, and vice
    // versa.
    let store = cyclic_store(200, 1600, 42);
    let q = parse_query(CYCLIC_CORPUS[0]).unwrap();
    let ops_with = |engine: Engine| -> Vec<&'static str> {
        let trace = QueryTrace::new();
        evaluate_with(&store, &q, &Budget::unlimited(), &trace, engine).unwrap();
        trace.plan_steps().iter().map(|s| s.op).collect()
    };
    let warm = ops_with(Engine::Wco);
    assert!(warm.contains(&"wco"));
    let toggled = ops_with(Engine::Pairwise);
    assert!(
        !toggled.contains(&"wco"),
        "wco-disabled run executed a cached wco plan: {toggled:?}"
    );
    let back = ops_with(Engine::Wco);
    assert!(back.contains(&"wco"), "re-enabling must find the wco plan");
}

#[test]
fn expired_deadline_degrades_all_three_engines_the_same_way() {
    let store = cyclic_store(200, 1600, 42);
    for q in CYCLIC_CORPUS {
        let budget = Budget::unlimited().with_expired_deadline();
        let greedy = run(&store, q, &budget, Engine::Greedy);
        let pairwise = run(&store, q, &budget, Engine::Pairwise);
        let wco = run(&store, q, &budget, Engine::Wco);
        let dg = greedy.degraded.expect("greedy must degrade");
        let dw = wco.degraded.expect("wco must degrade");
        assert_eq!(dg.reason, dw.reason);
        assert_eq!(
            dw.reason,
            pairwise.degraded.expect("pairwise must degrade").reason
        );
        // All trip before the first chunk, then finish in grace mode.
        let bag = sorted_rows(&wco.result);
        assert_eq!(bag, sorted_rows(&pairwise.result), "degraded bags:\n{q}");
        assert_eq!(bag, sorted_rows(&greedy.result), "degraded bags:\n{q}");
    }
}

#[test]
fn row_cap_yields_a_sound_subset_under_wco() {
    let store = cyclic_store(200, 1600, 42);
    let q = CYCLIC_CORPUS[0];
    let full: std::collections::HashSet<String> =
        sorted_rows(&run(&store, q, &Budget::unlimited(), Engine::Wco).result)
            .into_iter()
            .collect();
    let capped = run(
        &store,
        q,
        &Budget::unlimited().with_row_cap(20),
        Engine::Wco,
    );
    let degraded = capped.degraded.expect("row cap must trip");
    let rows = sorted_rows(&capped.result);
    assert!(rows.len() < full.len());
    for row in &rows {
        assert!(full.contains(row), "degraded rows must be real solutions");
    }
    // Thread-invariant, like every operator.
    let serial = with_thread_override(1, || {
        sorted_rows(
            &run(
                &store,
                q,
                &Budget::unlimited().with_row_cap(20),
                Engine::Wco,
            )
            .result,
        )
    });
    let par = with_thread_override(4, || {
        sorted_rows(
            &run(
                &store,
                q,
                &Budget::unlimited().with_row_cap(20),
                Engine::Wco,
            )
            .result,
        )
    });
    assert_eq!(serial, par, "capped wco results depend on thread count");
    assert_capped_answer_is_fixed(&store, q, 20, (rows.len(), degraded.coverage));
    assert_eq!((rows.len(), degraded.coverage), WCO_CAPPED);
}

/// What `row_cap=20` leaves of the triangle over `cyclic_store(200,
/// 1600, 42)` under the multiway join: nothing. A stage charges its
/// input items, the join's candidates fit in one chunk, which the cap
/// admits whole and which exhausts it — the decode stage then trips
/// before its first row. Coarse, but the same coarse every time.
const WCO_CAPPED: (usize, f64) = (0, 0.0);

#[test]
fn cancellation_degrades_wco_queries() {
    let store = cyclic_store(200, 1600, 42);
    let budget = Budget::unlimited().with_row_cap(u64::MAX);
    budget.cancel();
    let wco = run(&store, CYCLIC_CORPUS[0], &budget, Engine::Wco);
    assert_eq!(
        wco.degraded.expect("cancelled").reason,
        wodex::sparql::DegradeReason::Cancelled
    );
}

#[test]
fn planner_engages_and_reports_steps_for_multi_pattern_queries() {
    let store = corpus_store(300, 42);
    let q = parse_query(CORPUS[1]).unwrap();
    let trace = QueryTrace::new();
    evaluate_with(&store, &q, &Budget::unlimited(), &trace, Engine::default()).unwrap();
    let steps = trace.plan_steps();
    assert_eq!(steps.len(), 3, "one step per pattern");
    assert_eq!(steps[0].op, "scan", "first step is always a scan");
    assert!(
        steps.iter().skip(1).all(|s| s.op != "scan"),
        "later steps are joins"
    );
    // The rendered table carries est vs. actual columns for explain.
    let table = trace.render_plan_table();
    assert!(table.contains("est_rows") && table.contains("actual_rows"));
}

// ---------------------------------------------------------------------
// The executor's own oracle (see `common`): all three engines share the
// step loop, so only a check that shares nothing with it can pin it.
// ---------------------------------------------------------------------

/// `LIMIT` on a group the cost-based builder plans, where the last step
/// is a batched join, and on a single pattern, where it is a probe.
const SLICED: &[&str] = &[
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
     SELECT ?s ?p ?l WHERE { ?s a dbo:City . ?s dbo:population ?p . \
     ?s rdfs:label ?l } LIMIT 7",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s dbo:population ?p } LIMIT 5",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s dbo:population ?p } LIMIT 5 OFFSET 3",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s dbo:population ?p } LIMIT 0",
];

#[test]
fn every_engine_agrees_with_the_brute_force_oracle() {
    use common::{engines_agree_with_the_oracle, tiny_store, TINY_ROWS};
    let store = corpus_store(300, 42);
    // Everything but the aggregate row is inside the oracle's subset.
    assert_eq!(
        engines_agree_with_the_oracle(&store, CORPUS),
        CORPUS.len() - 1
    );
    assert_eq!(engines_agree_with_the_oracle(&store, SLICED), SLICED.len());
    assert_eq!(
        engines_agree_with_the_oracle(&cyclic_store(60, 300, 42), CYCLIC_CORPUS),
        CYCLIC_CORPUS.len()
    );
    assert_eq!(
        engines_agree_with_the_oracle(&tiny_store(), TINY_ROWS),
        TINY_ROWS.len()
    );
}

/// The parser sits above every engine *and* above the oracle: a constant
/// it misreads is misread for all of them alike. So these rows are held
/// to the oracle and to the number of solutions they are known to have.
#[test]
fn non_ascii_and_escaped_constants_find_the_terms_written() {
    use common::{engines_agree_with_the_oracle, tiny_store, UNICODE_ROWS};
    let store = tiny_store();
    let texts: Vec<&str> = UNICODE_ROWS.iter().map(|row| row.0).collect();
    assert_eq!(engines_agree_with_the_oracle(&store, &texts), texts.len());
    for (text, solutions) in UNICODE_ROWS {
        let got = run(&store, text, &Budget::unlimited(), Engine::Wco);
        assert_eq!(sorted_rows(&got.result).len(), *solutions, "{text}");
    }
}
