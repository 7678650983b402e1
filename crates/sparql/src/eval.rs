//! The query evaluator: everything around the joins.
//!
//! Rewrites the query ([`crate::algebra`]), lays out the solution row,
//! expands UNION blocks into pattern groups, hands every group and every
//! OPTIONAL block to the one BGP executor ([`crate::plan`]) — which
//! applies filters as soon as their variables are bound and stops early
//! for `LIMIT`-only queries — then runs the filters over optional
//! variables, aggregation, ordering, and the final term decode.

use crate::ast::*;
use crate::parser::ParseError;
use crate::plan::{join_group, left_join, Engine, ExecCx};
use crate::results::{QueryResult, SolutionTable};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use wodex_obs::{Counter, QueryTrace, Stage};
use wodex_rdf::{Term, TermId, Value};
use wodex_resilience::{Budget, DegradeReason, Degraded};
use wodex_store::{Pattern, TripleStore};

/// Global registry series for the query engine.
pub(crate) struct SparqlMetrics {
    queries: Arc<Counter>,
    degraded: Arc<Counter>,
    pub(crate) rows_probed: Arc<Counter>,
    rows_decoded: Arc<Counter>,
}

pub(crate) fn sparql_metrics() -> &'static SparqlMetrics {
    static METRICS: OnceLock<SparqlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        SparqlMetrics {
            queries: r.counter(
                "wodex_sparql_queries_total",
                "Queries evaluated (all forms, budgeted or not)",
            ),
            degraded: r.counter(
                "wodex_sparql_degraded_total",
                "Queries whose budget tripped and returned a partial answer",
            ),
            rows_probed: r.counter(
                "wodex_sparql_rows_probed_total",
                "Binding rows produced by BGP index probes",
            ),
            rows_decoded: r.counter(
                "wodex_sparql_rows_decoded_total",
                "Result rows materialized from term ids to lexical forms",
            ),
        }
    })
}

/// Errors from parsing or evaluating a query.
#[derive(Debug)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query was structurally invalid for evaluation.
    Eval(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A partial solution: one optional term id per variable.
pub(crate) type Row = Vec<Option<TermId>>;

/// A projected output table: column names plus decoded rows.
type TermTable = (Vec<String>, Vec<Vec<Option<Term>>>);

/// A query result that may be a budget-degraded partial answer.
#[derive(Debug)]
pub struct BudgetedResult {
    /// The (possibly partial) result. Every row in a degraded table is a
    /// genuine solution of the query — degradation shrinks the answer, it
    /// never fabricates rows.
    pub result: QueryResult,
    /// `Some` when the budget cut evaluation short, with the reason and
    /// the estimated fraction of the search space that was covered.
    pub degraded: Option<Degraded>,
}

/// When a budget trips mid-join, the surviving bindings are sampled down
/// to this many rows so the remaining stages can finish in bounded "grace"
/// work — the SynopsViz/HETree stance of completing a coarser answer
/// instead of failing.
const DEGRADED_SAMPLE_ROWS: usize = 512;

/// Degradation bookkeeping threaded through the evaluation stages.
pub(crate) struct DegradeState {
    reason: Option<DegradeReason>,
    coverage: f64,
}

impl DegradeState {
    pub(crate) fn new() -> DegradeState {
        DegradeState {
            reason: None,
            coverage: 1.0,
        }
    }

    /// True once a budget dimension has tripped — later stages run in
    /// grace mode (serial, over the sampled rows, no further checks).
    pub(crate) fn active(&self) -> bool {
        self.reason.is_some()
    }

    /// Records the first trip and folds the stage's completed fraction
    /// into the running coverage estimate.
    pub(crate) fn trip(&mut self, reason: DegradeReason, stage_coverage: f64) {
        self.reason.get_or_insert(reason);
        self.coverage *= stage_coverage.clamp(0.0, 1.0);
    }

    /// Samples `rows` down to the grace-mode bound, folding the sampling
    /// fraction into coverage.
    pub(crate) fn sample(&mut self, rows: &mut Vec<Row>) {
        if rows.len() > DEGRADED_SAMPLE_ROWS {
            self.coverage *= DEGRADED_SAMPLE_ROWS as f64 / rows.len() as f64;
            rows.truncate(DEGRADED_SAMPLE_ROWS);
        }
    }

    fn into_degraded(self) -> Option<Degraded> {
        self.reason.map(|reason| Degraded {
            reason,
            coverage: self.coverage,
        })
    }
}

/// Evaluates a parsed query against a store with no budget.
pub fn evaluate(store: &TripleStore, q: &Query) -> Result<QueryResult, QueryError> {
    static UNLIMITED: Budget = Budget::unlimited();
    evaluate_budgeted(store, q, &UNLIMITED).map(|b| b.result)
}

/// Evaluates a parsed query under a [`Budget`].
///
/// With an unlimited budget this is exactly [`evaluate`] — the same code
/// paths run, so results are bit-identical. Under an active budget the
/// join stages poll the budget at `wodex-exec` chunk granularity; when a
/// dimension trips, the surviving bindings are sampled down and the
/// remaining stages complete over the sample, yielding a sound subset of
/// the true answer flagged [`Degraded`]`{ reason, coverage }`.
pub fn evaluate_budgeted(
    store: &TripleStore,
    q: &Query,
    budget: &Budget,
) -> Result<BudgetedResult, QueryError> {
    evaluate_traced(store, q, budget, &QueryTrace::disabled())
}

/// [`evaluate_budgeted`] with a caller-supplied [`QueryTrace`] recording
/// per-stage timings and counts. The untraced entry points pass a
/// disabled trace, so tracing support costs them one branch per span
/// site and nothing else.
pub fn evaluate_traced(
    store: &TripleStore,
    q: &Query,
    budget: &Budget,
    trace: &QueryTrace,
) -> Result<BudgetedResult, QueryError> {
    evaluate_with(store, q, budget, trace, Engine::default())
}

/// [`evaluate_traced`] with an explicit [`Engine`].
pub fn evaluate_with(
    store: &TripleStore,
    q: &Query,
    budget: &Budget,
    trace: &QueryTrace,
    engine: Engine,
) -> Result<BudgetedResult, QueryError> {
    let m = sparql_metrics();
    m.queries.inc();
    let mut deg = DegradeState::new();
    let out =
        evaluate_inner(store, q, budget, &mut deg, trace, engine).map(|result| BudgetedResult {
            result,
            degraded: deg.into_degraded(),
        });
    if let Ok(b) = &out {
        if b.degraded.is_some() {
            m.degraded.inc();
        }
    }
    out
}

fn evaluate_inner(
    store: &TripleStore,
    q: &Query,
    budget: &Budget,
    deg: &mut DegradeState,
    trace: &QueryTrace,
    engine: Engine,
) -> Result<QueryResult, QueryError> {
    let plan_span = trace.span(Stage::Plan);
    // Algebra rewrites (constant propagation, projection pruning,
    // block reordering) run before anything looks at the query — in
    // particular before the plan-cache lookup, so cached plans are
    // keyed on the *rewritten* shape.
    let rewritten = crate::algebra::rewrite(store, q);
    let q = rewritten.query(q);
    let vars: Vec<Var> = q
        .pattern_vars()
        .into_iter()
        .filter(|v| !rewritten.pruned.contains(v))
        .collect();
    let var_idx: HashMap<&str, usize> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();

    // Validate filter/projection variables.
    for f in &q.filters {
        for v in expr_vars(f) {
            if !var_idx.contains_key(v.as_str()) {
                return Err(QueryError::Eval(format!(
                    "filter uses unbound variable ?{v}"
                )));
            }
        }
    }

    if let QueryForm::Describe(resources) = &q.form {
        return Ok(QueryResult::Described(describe(store, resources)));
    }
    let has_aggregates = match &q.form {
        QueryForm::Select { projections, .. } => projections
            .iter()
            .any(|p| matches!(p, Projection::Aggregate(_, _))),
        QueryForm::Ask | QueryForm::Describe(_) => false,
    };
    // Split filters: those only over required/union variables run inside
    // the join; those mentioning optional variables run after the left
    // joins (unbound variables make them errors→false, per SPARQL).
    let optional_vars: std::collections::HashSet<String> = q
        .optionals
        .iter()
        .flatten()
        .flat_map(|p| p.vars().into_iter().map(str::to_string))
        .collect();
    let (post_filters, bgp_filters): (Vec<&Expr>, Vec<&Expr>) = q
        .filters
        .iter()
        .partition(|f| expr_vars(f).iter().any(|v| optional_vars.contains(v)));

    let ask = matches!(q.form, QueryForm::Ask);
    // Early termination is safe when the row stream is the output stream.
    // ASK needs one row of it — but a filter over optional variables can
    // still reject that row, so then every required row must reach it.
    let early_limit = if ask {
        post_filters.is_empty().then_some(1)
    } else if q.group_by.is_empty()
        && q.order_by.is_empty()
        && !has_aggregates
        && q.optionals.is_empty()
        && q.unions.is_empty()
        && !matches!(q.form, QueryForm::Select { distinct: true, .. })
    {
        q.limit.map(|l| l.saturating_add(q.offset))
    } else {
        None
    };

    // Expand UNION blocks into pattern combinations (bag union of rows).
    let mut combos: Vec<Vec<TriplePattern>> = vec![q.patterns.clone()];
    for block in &q.unions {
        let mut next = Vec::with_capacity(combos.len() * block.len());
        for combo in &combos {
            for alt in block {
                let mut c = combo.clone();
                c.extend(alt.iter().cloned());
                next.push(c);
            }
        }
        combos = next;
    }
    drop(plan_span);
    // Every pattern group reaches the same executor; which builder plans
    // it is the engine's business.
    let cx = ExecCx {
        store,
        var_idx: &var_idx,
        budget,
        trace,
    };
    let mut rows: Vec<Row> = Vec::new();
    for combo in &combos {
        rows.extend(join_group(
            &cx,
            deg,
            engine,
            combo,
            &bgp_filters,
            early_limit,
        ));
    }
    for block in &q.optionals {
        rows = left_join(&cx, deg, block, rows);
    }
    // Residual filters (mentioning optional variables), evaluated in
    // parallel over the solution table (order-preserving keep flags).
    for f in &post_filters {
        let _filter_span = trace.span(Stage::Filter);
        retain_parallel(&mut rows, |row| {
            eval_expr(store, f, row, &var_idx)
                .and_then(effective_bool)
                .unwrap_or(false)
        });
    }

    if ask {
        return Ok(QueryResult::Boolean(!rows.is_empty()));
    }
    let QueryForm::Select {
        projections,
        distinct,
    } = &q.form
    else {
        unreachable!("ask handled above");
    };

    // Aggregation / grouping.
    let (columns, mut out_rows): TermTable = if has_aggregates || !q.group_by.is_empty() {
        aggregate_rows(store, q, projections, &var_idx, rows)?
    } else {
        let selected: Vec<String> = if projections.is_empty() {
            vars.clone()
        } else {
            projections
                .iter()
                .map(|p| match p {
                    Projection::Var(v) => Ok(v.clone()),
                    Projection::Aggregate(_, _) => unreachable!("no aggregates here"),
                })
                .collect::<Result<_, QueryError>>()?
        };
        let idxs: Vec<usize> = selected
            .iter()
            .map(|v| {
                var_idx.get(v.as_str()).copied().ok_or_else(|| {
                    QueryError::Eval(format!("projected variable ?{v} not in pattern"))
                })
            })
            .collect::<Result<_, _>>()?;
        // ORDER BY before projection so sort keys need not be selected.
        let mut rows = rows;
        sort_rows(store, q, &var_idx, &mut rows)?;
        // Final decode: term materialization is per-row independent, so
        // it runs in parallel partitions merged in row order. Under an
        // active budget the decode itself is interruptible (it can be the
        // dominant cost for SELECT * over a large store).
        let decode = |row: &Row| -> Vec<Option<Term>> {
            idxs.iter()
                .map(|&i| row[i].map(|id| store.term(id).clone()))
                .collect()
        };
        let decode_span = trace.span(Stage::Decode);
        let out = if budget.is_unlimited() || deg.active() {
            wodex_exec::par_map(&rows, decode)
        } else {
            let total = rows.len();
            let part = wodex_exec::par_map_budgeted(&rows, budget, decode);
            if let Some(reason) = part.interrupted {
                deg.trip(reason, part.coverage(total));
            }
            part.value
        };
        trace.add_items(Stage::Decode, out.len() as u64);
        sparql_metrics().rows_decoded.add(out.len() as u64);
        drop(decode_span);
        (selected, out)
    };

    // For aggregated results, ORDER BY applies to output columns.
    if (has_aggregates || !q.group_by.is_empty()) && !q.order_by.is_empty() {
        let col_of: HashMap<&str, usize> = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.as_str(), i))
            .collect();
        let keys: Vec<(usize, SortDir)> = q
            .order_by
            .iter()
            .map(|(v, d)| {
                col_of
                    .get(v.as_str())
                    .map(|&i| (i, *d))
                    .ok_or_else(|| QueryError::Eval(format!("ORDER BY ?{v} not in output")))
            })
            .collect::<Result<_, _>>()?;
        out_rows.sort_by(|a, b| compare_term_rows(a, b, &keys));
    }

    if *distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| seen.insert(format!("{r:?}")));
    }
    let rows: Vec<Vec<Option<Term>>> = out_rows
        .into_iter()
        .skip(q.offset)
        .take(q.limit.unwrap_or(usize::MAX))
        .collect();
    Ok(QueryResult::Solutions(SolutionTable { columns, rows }))
}

/// DESCRIBE: every stored triple in which a listed resource appears as
/// subject or object.
fn describe(store: &TripleStore, resources: &[Term]) -> wodex_rdf::Graph {
    let mut g = wodex_rdf::Graph::new();
    for r in resources {
        let Some(id) = store.id_of(r) else { continue };
        for pat in [Pattern::any().with_s(id), Pattern::any().with_o(id)] {
            store.match_pattern_chunks(pat, &mut |chunk| {
                for t in chunk {
                    g.insert(store.decode(*t));
                }
                true
            });
        }
    }
    g
}

/// `Vec::retain`, with the predicate evaluated in parallel: keep flags are
/// computed per partition and applied in row order, so the surviving rows
/// are identical at every thread count.
pub(crate) fn retain_parallel<T: Sync>(rows: &mut Vec<T>, pred: impl Fn(&T) -> bool + Sync) {
    let keep = wodex_exec::par_map(rows.as_slice(), |row| pred(row));
    let mut flags = keep.into_iter();
    rows.retain(|_| flags.next().expect("one flag per row"));
}

/// Sorts rows in place by the query's ORDER BY keys (pattern variables).
fn sort_rows(
    store: &TripleStore,
    q: &Query,
    var_idx: &HashMap<&str, usize>,
    rows: &mut [Row],
) -> Result<(), QueryError> {
    if q.order_by.is_empty() {
        return Ok(());
    }
    let keys: Vec<(usize, SortDir)> = q
        .order_by
        .iter()
        .map(|(v, d)| {
            var_idx
                .get(v.as_str())
                .map(|&i| (i, *d))
                .ok_or_else(|| QueryError::Eval(format!("ORDER BY ?{v} not in pattern")))
        })
        .collect::<Result<_, _>>()?;
    rows.sort_by(|a, b| {
        for &(i, dir) in &keys {
            let va = a[i].map(|id| term_sort_value(store.term(id)));
            let vb = b[i].map(|id| term_sort_value(store.term(id)));
            let ord = match (va, vb) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => x.total_cmp(&y),
            };
            let ord = if dir == SortDir::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

fn term_sort_value(t: &Term) -> Value {
    match t {
        Term::Literal(l) => Value::from_literal(l),
        Term::Iri(i) => Value::Text(i.as_str().to_string()),
        Term::Blank(b) => Value::Text(format!("_:{}", b.label())),
    }
}

fn compare_term_rows(
    a: &[Option<Term>],
    b: &[Option<Term>],
    keys: &[(usize, SortDir)],
) -> std::cmp::Ordering {
    for &(i, dir) in keys {
        let va = a[i].as_ref().map(term_sort_value);
        let vb = b[i].as_ref().map(term_sort_value);
        let ord = match (va, vb) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => x.total_cmp(&y),
        };
        let ord = if dir == SortDir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Groups rows and computes aggregates.
fn aggregate_rows(
    store: &TripleStore,
    q: &Query,
    projections: &[Projection],
    var_idx: &HashMap<&str, usize>,
    rows: Vec<Row>,
) -> Result<TermTable, QueryError> {
    // Validate projections: plain vars must be grouped.
    for p in projections {
        if let Projection::Var(v) = p {
            if !q.group_by.contains(v) {
                return Err(QueryError::Eval(format!(
                    "?{v} must appear in GROUP BY to be selected alongside aggregates"
                )));
            }
        }
    }
    let group_idxs: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            var_idx
                .get(v.as_str())
                .copied()
                .ok_or_else(|| QueryError::Eval(format!("GROUP BY ?{v} not in pattern")))
        })
        .collect::<Result<_, _>>()?;
    // Group rows.
    let mut groups: Vec<(Vec<Option<TermId>>, Vec<Row>)> = Vec::new();
    let mut index: HashMap<Vec<Option<TermId>>, usize> = HashMap::new();
    for row in rows {
        let key: Vec<Option<TermId>> = group_idxs.iter().map(|&i| row[i]).collect();
        match index.get(&key) {
            Some(&g) => groups[g].1.push(row),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![row]));
            }
        }
    }
    // With no GROUP BY, aggregates run over one global group (possibly
    // empty).
    if q.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let columns: Vec<String> = projections
        .iter()
        .map(|p| match p {
            Projection::Var(v) => v.clone(),
            Projection::Aggregate(_, alias) => alias.clone(),
        })
        .collect();

    let numeric = |rows: &[Row], v: &str| -> Vec<f64> {
        let i = var_idx[v];
        rows.iter()
            .filter_map(|r| r[i])
            .filter_map(|id| match store.term(id) {
                Term::Literal(l) => Value::from_literal(l).as_f64(),
                _ => None,
            })
            .collect()
    };

    let mut out_rows = Vec::with_capacity(groups.len());
    for (key, grows) in &groups {
        let mut out = Vec::with_capacity(projections.len());
        for p in projections {
            match p {
                Projection::Var(v) => {
                    let pos = q.group_by.iter().position(|g| g == v).expect("validated");
                    out.push(key[pos].map(|id| store.term(id).clone()));
                }
                Projection::Aggregate(agg, _) => {
                    let term = match agg {
                        Aggregate::Count(None) => Some(Term::integer(grows.len() as i64)),
                        Aggregate::Count(Some(v)) => {
                            let i = *var_idx.get(v.as_str()).ok_or_else(|| {
                                QueryError::Eval(format!("COUNT(?{v}) not in pattern"))
                            })?;
                            Some(Term::integer(
                                grows.iter().filter(|r| r[i].is_some()).count() as i64,
                            ))
                        }
                        Aggregate::Sum(v) => {
                            let vals = numeric(grows, v);
                            Some(Term::double(vals.iter().sum()))
                        }
                        Aggregate::Avg(v) => {
                            let vals = numeric(grows, v);
                            if vals.is_empty() {
                                None
                            } else {
                                Some(Term::double(vals.iter().sum::<f64>() / vals.len() as f64))
                            }
                        }
                        Aggregate::Min(v) => numeric(grows, v)
                            .into_iter()
                            .min_by(f64::total_cmp)
                            .map(Term::double),
                        Aggregate::Max(v) => numeric(grows, v)
                            .into_iter()
                            .max_by(f64::total_cmp)
                            .map(Term::double),
                    };
                    out.push(term);
                }
            }
        }
        out_rows.push(out);
    }
    Ok((columns, out_rows))
}

// ----- expressions -----

/// The value domain of filter expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EvalValue {
    Term(Term),
    Bool(bool),
    Str(String),
}

/// The variables an expression mentions.
pub fn expr_vars(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_vars(e, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_vars(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Var(v) | Expr::Bound(v) => out.push(v.clone()),
        Expr::Const(_) => {}
        Expr::Compare(a, _, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Contains(a, b)
        | Expr::StrStarts(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        Expr::Not(a) | Expr::Lang(a) | Expr::Str(a) | Expr::IsIri(a) | Expr::IsLiteral(a) => {
            collect_vars(a, out)
        }
    }
}

pub(crate) fn eval_expr(
    store: &TripleStore,
    e: &Expr,
    row: &Row,
    var_idx: &HashMap<&str, usize>,
) -> Option<EvalValue> {
    match e {
        Expr::Var(v) => {
            let id = row[var_idx[v.as_str()]]?;
            Some(EvalValue::Term(store.term(id).clone()))
        }
        Expr::Const(t) => Some(EvalValue::Term(t.clone())),
        Expr::Bound(v) => Some(EvalValue::Bool(row[var_idx[v.as_str()]].is_some())),
        Expr::Not(a) => {
            let b = eval_expr(store, a, row, var_idx).and_then(effective_bool)?;
            Some(EvalValue::Bool(!b))
        }
        Expr::And(a, b) => {
            let va = eval_expr(store, a, row, var_idx).and_then(effective_bool)?;
            if !va {
                return Some(EvalValue::Bool(false));
            }
            let vb = eval_expr(store, b, row, var_idx).and_then(effective_bool)?;
            Some(EvalValue::Bool(vb))
        }
        Expr::Or(a, b) => {
            let va = eval_expr(store, a, row, var_idx).and_then(effective_bool)?;
            if va {
                return Some(EvalValue::Bool(true));
            }
            let vb = eval_expr(store, b, row, var_idx).and_then(effective_bool)?;
            Some(EvalValue::Bool(vb))
        }
        Expr::Compare(a, op, b) => {
            let va = eval_expr(store, a, row, var_idx)?;
            let vb = eval_expr(store, b, row, var_idx)?;
            compare(&va, &vb, *op).map(EvalValue::Bool)
        }
        Expr::Contains(a, b) => {
            let sa = string_of(&eval_expr(store, a, row, var_idx)?)?;
            let sb = string_of(&eval_expr(store, b, row, var_idx)?)?;
            Some(EvalValue::Bool(sa.contains(&sb)))
        }
        Expr::StrStarts(a, b) => {
            let sa = string_of(&eval_expr(store, a, row, var_idx)?)?;
            let sb = string_of(&eval_expr(store, b, row, var_idx)?)?;
            Some(EvalValue::Bool(sa.starts_with(&sb)))
        }
        Expr::Lang(a) => match eval_expr(store, a, row, var_idx)? {
            EvalValue::Term(Term::Literal(l)) => {
                Some(EvalValue::Str(l.lang().unwrap_or("").to_string()))
            }
            _ => None,
        },
        Expr::Str(a) => string_of(&eval_expr(store, a, row, var_idx)?).map(EvalValue::Str),
        Expr::IsIri(a) => match eval_expr(store, a, row, var_idx)? {
            EvalValue::Term(t) => Some(EvalValue::Bool(t.is_iri())),
            _ => Some(EvalValue::Bool(false)),
        },
        Expr::IsLiteral(a) => match eval_expr(store, a, row, var_idx)? {
            EvalValue::Term(t) => Some(EvalValue::Bool(t.is_literal())),
            _ => Some(EvalValue::Bool(false)),
        },
    }
}

fn string_of(v: &EvalValue) -> Option<String> {
    match v {
        EvalValue::Str(s) => Some(s.clone()),
        EvalValue::Bool(b) => Some(b.to_string()),
        EvalValue::Term(Term::Literal(l)) => Some(l.lexical().to_string()),
        EvalValue::Term(Term::Iri(i)) => Some(i.as_str().to_string()),
        EvalValue::Term(Term::Blank(_)) => None,
    }
}

pub(crate) fn effective_bool(v: EvalValue) -> Option<bool> {
    match v {
        EvalValue::Bool(b) => Some(b),
        EvalValue::Str(s) => Some(!s.is_empty()),
        EvalValue::Term(Term::Literal(l)) => match Value::from_literal(&l) {
            Value::Boolean(b) => Some(b),
            Value::Integer(i) => Some(i != 0),
            Value::Double(d) => Some(d != 0.0 && !d.is_nan()),
            Value::Text(s) => Some(!s.is_empty()),
            _ => Some(true),
        },
        EvalValue::Term(_) => None,
    }
}

fn compare(a: &EvalValue, b: &EvalValue, op: CompareOp) -> Option<bool> {
    use std::cmp::Ordering;
    let ord: Ordering = match (a, b) {
        (EvalValue::Term(Term::Literal(la)), EvalValue::Term(Term::Literal(lb))) => {
            let va = Value::from_literal(la);
            let vb = Value::from_literal(lb);
            // Incomparable kinds only support (in)equality.
            let comparable = (va.is_numeric() && vb.is_numeric())
                || (va.is_temporal() && vb.is_temporal())
                || matches!((&va, &vb), (Value::Text(_), Value::Text(_)))
                || matches!((&va, &vb), (Value::Boolean(_), Value::Boolean(_)));
            if !comparable && !matches!(op, CompareOp::Eq | CompareOp::Ne) {
                return None;
            }
            va.total_cmp(&vb)
        }
        (EvalValue::Str(x), EvalValue::Str(y)) => x.cmp(y),
        (EvalValue::Str(x), EvalValue::Term(Term::Literal(l))) => x.as_str().cmp(l.lexical()),
        (EvalValue::Term(Term::Literal(l)), EvalValue::Str(y)) => l.lexical().cmp(y.as_str()),
        (EvalValue::Bool(x), EvalValue::Bool(y)) => x.cmp(y),
        (EvalValue::Term(x), EvalValue::Term(y)) => {
            // IRIs/bnodes: only (in)equality is meaningful.
            if !matches!(op, CompareOp::Eq | CompareOp::Ne) {
                return None;
            }
            if x == y {
                Ordering::Equal
            } else {
                Ordering::Less
            }
        }
        _ => return None,
    };
    Some(match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use wodex_rdf::vocab::{foaf, rdf, rdfs};
    use wodex_rdf::{Graph, Triple};

    fn store() -> TripleStore {
        let mut g = Graph::new();
        let people = [
            ("alice", 30, "en"),
            ("bob", 25, "en"),
            ("carol", 35, "de"),
            ("dave", 30, "de"),
        ];
        for (name, age, lang) in people {
            let s = format!("http://e.org/{name}");
            g.insert(Triple::iri(&s, rdf::TYPE, Term::iri(foaf::PERSON)));
            g.insert(Triple::iri(
                &s,
                rdfs::LABEL,
                Term::Literal(wodex_rdf::term::Literal::lang_string(name, lang)),
            ));
            g.insert(Triple::iri(&s, "http://e.org/age", Term::integer(age)));
        }
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
        TripleStore::from_graph(&g)
    }

    fn run(q: &str) -> QueryResult {
        let _guard = crate::plan::plan_cache_test_lock();
        let st = store();
        crate::query(&st, q).unwrap()
    }

    #[test]
    fn select_star_counts_all_triples() {
        let r = run("SELECT * WHERE { ?s ?p ?o }");
        assert_eq!(r.table().unwrap().len(), 14);
        assert_eq!(r.table().unwrap().columns, vec!["s", "p", "o"]);
    }

    #[test]
    fn select_with_constant_predicate() {
        let r = run("PREFIX ex: <http://e.org/> SELECT ?s ?age WHERE { ?s ex:age ?age }");
        assert_eq!(r.table().unwrap().len(), 4);
    }

    #[test]
    fn join_over_shared_variable() {
        let r = run("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?a ?b WHERE { ?a foaf:knows ?b . ?b foaf:knows ?c }");
        let t = r.table().unwrap();
        assert_eq!(t.len(), 1); // alice knows bob, bob knows carol
        assert_eq!(t.rows[0][0], Some(Term::iri("http://e.org/alice")));
    }

    #[test]
    fn filter_numeric_comparison() {
        let r = run("PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a >= 30) }");
        assert_eq!(r.table().unwrap().len(), 3);
        let r = run(
            "PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a > 30 && ?a < 40) }",
        );
        assert_eq!(r.table().unwrap().len(), 1);
    }

    #[test]
    fn filter_string_functions() {
        let r = run(
            "SELECT ?s WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l \
             FILTER(CONTAINS(STR(?l), \"ar\")) }",
        );
        assert_eq!(r.table().unwrap().len(), 1); // carol
        let r = run(
            "SELECT ?s WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?l \
             FILTER(LANG(?l) = \"de\") }",
        );
        assert_eq!(r.table().unwrap().len(), 2);
    }

    #[test]
    fn filter_on_iris() {
        let r = run("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?a WHERE { ?a foaf:knows ?b FILTER(?b = <http://e.org/bob>) }");
        assert_eq!(r.table().unwrap().len(), 1);
        let r = run("SELECT ?s WHERE { ?s ?p ?o FILTER(ISLITERAL(?o)) }");
        assert_eq!(r.table().unwrap().len(), 8); // 4 labels + 4 ages
    }

    #[test]
    fn order_by_and_limit() {
        let r = run(
            "PREFIX ex: <http://e.org/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s LIMIT 2",
        );
        let t = r.table().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0][1], Some(Term::integer(35)));
        assert_eq!(t.rows[1][1], Some(Term::integer(30)));
        // Tie on 30 broken by subject ascending: alice before dave.
        assert_eq!(t.rows[1][0], Some(Term::iri("http://e.org/alice")));
    }

    #[test]
    fn offset_pagination() {
        let all = run("PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a } ORDER BY ?s");
        let page2 = run(
            "PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a } ORDER BY ?s LIMIT 2 OFFSET 2",
        );
        assert_eq!(
            page2.table().unwrap().rows,
            all.table().unwrap().rows[2..4].to_vec()
        );
    }

    #[test]
    fn distinct_dedups() {
        let r = run("SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
        assert_eq!(r.table().unwrap().len(), 4); // type, label, age, knows
    }

    #[test]
    fn group_by_unbound_variable_errors() {
        let st = store();
        let r = crate::query(
            &st,
            "PREFIX ex: <http://e.org/> SELECT ?lang (COUNT(*) AS ?n) \
             WHERE { ?s ex:age ?a } GROUP BY ?lang",
        );
        assert!(matches!(r, Err(QueryError::Eval(_))));
    }

    #[test]
    fn ungrouped_variable_next_to_aggregate_errors() {
        let st = store();
        let r = crate::query(
            &st,
            "PREFIX ex: <http://e.org/> SELECT ?s (COUNT(*) AS ?n) \
             WHERE { ?s ex:age ?a } GROUP BY ?a",
        );
        assert!(matches!(r, Err(QueryError::Eval(_))));
    }

    #[test]
    fn global_aggregates_without_group() {
        let r = run(
            "PREFIX ex: <http://e.org/> SELECT (COUNT(*) AS ?n) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?sum) WHERE { ?s ex:age ?a }",
        );
        let t = r.table().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Some(Term::integer(4)));
        assert_eq!(t.rows[0][1], Some(Term::double(30.0)));
        assert_eq!(t.rows[0][2], Some(Term::double(25.0)));
        assert_eq!(t.rows[0][3], Some(Term::double(35.0)));
        assert_eq!(t.rows[0][4], Some(Term::double(120.0)));
    }

    #[test]
    fn group_by_class() {
        let r = run(
            "PREFIX ex: <http://e.org/> SELECT ?a (COUNT(*) AS ?n) WHERE { ?s ex:age ?a } GROUP BY ?a ORDER BY ?a",
        );
        let t = r.table().unwrap();
        assert_eq!(t.len(), 3); // ages 25, 30, 35
        assert_eq!(t.rows[1][1], Some(Term::integer(2))); // two thirty-year-olds
    }

    #[test]
    fn ask_queries() {
        assert_eq!(
            run("ASK { <http://e.org/alice> <http://e.org/age> 30 }").boolean(),
            Some(true)
        );
        assert_eq!(
            run("ASK { <http://e.org/alice> <http://e.org/age> 99 }").boolean(),
            Some(false)
        );
    }

    #[test]
    fn unknown_constants_yield_empty_not_error() {
        let r = run("SELECT * WHERE { ?s <http://nowhere/p> ?o }");
        assert!(r.table().unwrap().is_empty());
        assert_eq!(
            run("ASK { ?s <http://nowhere/p> ?o }").boolean(),
            Some(false)
        );
    }

    #[test]
    fn same_variable_twice_in_pattern() {
        // ?x knows ?x — nobody knows themselves here.
        let r =
            run("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x WHERE { ?x foaf:knows ?x }");
        assert!(r.table().unwrap().is_empty());
    }

    #[test]
    fn early_limit_matches_full_evaluation() {
        let full = run("SELECT ?s WHERE { ?s ?p ?o }");
        let limited = run("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3");
        assert_eq!(limited.table().unwrap().len(), 3);
        assert!(full.table().unwrap().len() > 3);
    }

    #[test]
    fn projecting_unknown_variable_errors() {
        let st = store();
        let r = crate::query(&st, "SELECT ?nope WHERE { ?s ?p ?o }");
        assert!(r.is_err());
    }

    #[test]
    fn describe_returns_forward_and_backward_triples() {
        let r = run("DESCRIBE <http://e.org/bob>");
        let g = r.graph().unwrap();
        // bob: type, label, age, knows carol (forward) + alice knows bob.
        assert_eq!(g.len(), 5);
        assert!(g
            .iter()
            .any(|t| t.subject == Term::iri("http://e.org/alice")));
    }

    #[test]
    fn describe_multiple_resources_unions_descriptions() {
        let both = run("DESCRIBE <http://e.org/alice> <http://e.org/bob>");
        let one = run("DESCRIBE <http://e.org/alice>");
        assert!(both.graph().unwrap().len() > one.graph().unwrap().len());
    }

    #[test]
    fn describe_unknown_resource_is_empty_and_bad_syntax_errors() {
        let r = run("DESCRIBE <http://nowhere/x>");
        assert!(r.graph().unwrap().is_empty());
        let st = store();
        assert!(crate::query(&st, "DESCRIBE").is_err());
        assert!(crate::query(&st, "DESCRIBE ?v WHERE { ?v ?p ?o }").is_err());
    }

    #[test]
    fn optional_left_joins_and_keeps_unmatched_rows() {
        // Everyone has an age; only alice and bob know someone.
        let r = run(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ex: <http://e.org/>\n\
             SELECT ?s ?friend WHERE { ?s ex:age ?a OPTIONAL { ?s foaf:knows ?friend } } ORDER BY ?s",
        );
        let t = r.table().unwrap();
        assert_eq!(t.len(), 4);
        let bound = t.rows.iter().filter(|r| r[1].is_some()).count();
        assert_eq!(bound, 2, "alice and bob have friends");
        let unbound = t.rows.iter().filter(|r| r[1].is_none()).count();
        assert_eq!(unbound, 2, "carol and dave keep their rows");
    }

    #[test]
    fn optional_with_bound_filter_emulates_negation() {
        // People who know nobody: OPTIONAL + !BOUND.
        let r = run("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ex: <http://e.org/>\n\
             SELECT ?s WHERE { ?s ex:age ?a OPTIONAL { ?s foaf:knows ?f } FILTER(!BOUND(?f)) }");
        let t = r.table().unwrap();
        assert_eq!(t.len(), 2); // carol, dave
        assert!(t
            .rows
            .iter()
            .all(|r| !r[0].as_ref().unwrap().to_string().contains("alice")));
    }

    #[test]
    fn union_is_a_bag_union_of_alternatives() {
        let r = run(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?x WHERE { { ?x foaf:knows <http://e.org/bob> } UNION { ?x foaf:knows <http://e.org/carol> } }",
        );
        let t = r.table().unwrap();
        assert_eq!(t.len(), 2); // alice (→bob), bob (→carol)
    }

    #[test]
    fn union_combines_with_required_patterns_and_filters() {
        // Age of people reachable via either branch.
        let r = run("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ex: <http://e.org/>\n\
             SELECT ?x ?a WHERE {\n\
               ?x ex:age ?a .\n\
               { ?x foaf:knows <http://e.org/bob> } UNION { ?x foaf:knows <http://e.org/carol> }\n\
               FILTER(?a >= 25)\n\
             } ORDER BY ?a");
        let t = r.table().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0][1], Some(Term::integer(25))); // bob
        assert_eq!(t.rows[1][1], Some(Term::integer(30))); // alice
    }

    #[test]
    fn three_way_union_parses_and_evaluates() {
        let r = run("PREFIX ex: <http://e.org/>\n\
             SELECT ?x WHERE { { ?x ex:age 25 } UNION { ?x ex:age 30 } UNION { ?x ex:age 35 } }");
        assert_eq!(r.table().unwrap().len(), 4); // bob + alice + dave + carol
    }

    #[test]
    fn optional_inside_aggregation() {
        let r = run("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ex: <http://e.org/>\n\
             SELECT (COUNT(?f) AS ?n) WHERE { ?s ex:age ?a OPTIONAL { ?s foaf:knows ?f } }");
        // COUNT(?f) counts only bound cells.
        assert_eq!(r.table().unwrap().rows[0][0], Some(Term::integer(2)));
    }

    #[test]
    fn ask_reads_every_row_a_filter_over_optional_variables_may_reject() {
        // ASK stops at one row — of the output stream. A filter over an
        // optional variable still thins the required rows, so whichever
        // of them comes first, one of these two used to see only a row
        // its filter rejects (alice knows someone; dave does not).
        let st = store();
        for engine in Engine::ALL {
            for filter in ["BOUND(?f)", "!BOUND(?f)"] {
                let q = parse_query(&format!(
                    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                     PREFIX ex: <http://e.org/>\n\
                     ASK {{ ?s ex:age ?a OPTIONAL {{ ?s foaf:knows ?f }} FILTER({filter}) }}"
                ))
                .unwrap();
                let out = evaluate_with(
                    &st,
                    &q,
                    &Budget::unlimited(),
                    &QueryTrace::disabled(),
                    engine,
                )
                .unwrap();
                assert_eq!(out.result.boolean(), Some(true), "{engine:?} {filter}");
            }
        }
    }

    #[test]
    fn limit_plus_offset_saturates_instead_of_wrapping() {
        // usize::MAX + 2 wraps to 1 in a release build (one row, which
        // OFFSET then skips) and panics in a debug build.
        let r = run(&format!(
            "PREFIX ex: <http://e.org/> SELECT ?s WHERE {{ ?s ex:age ?a }} LIMIT {} OFFSET 1",
            usize::MAX
        ));
        assert_eq!(r.table().unwrap().len(), 3, "four ages, one skipped");
        let r = run("PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a } LIMIT 0");
        assert!(r.table().unwrap().is_empty());
        let r = run("PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a } LIMIT 0 OFFSET 3");
        assert!(r.table().unwrap().is_empty());
    }

    /// A base region that counts how often it is asked for an exact
    /// pattern count — what the greedy builder's tie-break costs.
    #[derive(Debug)]
    struct CountingBase {
        inner: TripleStore,
        counts: std::sync::atomic::AtomicUsize,
    }

    impl wodex_store::SegmentSource for CountingBase {
        fn source_len(&self) -> usize {
            self.inner.source_len()
        }
        fn scan(
            &self,
            pat: Pattern,
        ) -> Result<Vec<wodex_store::EncodedTriple>, wodex_store::StoreError> {
            self.inner.scan(pat)
        }
        fn estimate(&self, pat: Pattern) -> usize {
            self.inner.estimate(pat)
        }
        fn source_stats(&self) -> wodex_store::StoreStats {
            self.inner.source_stats()
        }
        fn count(&self, pat: Pattern) -> Result<usize, wodex_store::StoreError> {
            self.counts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.count(pat)
        }
    }

    #[test]
    fn an_optional_block_is_compiled_and_counted_once_not_once_per_left_row() {
        let inner = big_store(1000);
        let dict = inner.dict().clone();
        let base = Arc::new(CountingBase {
            inner,
            counts: Default::default(),
        });
        let st = TripleStore::with_base(dict, base.clone());
        let text = "PREFIX ex: <http://e.org/>\n\
             SELECT ?s ?a ?t WHERE { ?s ex:age ?a OPTIONAL { ?s a ?t . ?s ex:age ?a } }";
        let r = crate::query(&st, text).unwrap();
        let table = r.table().unwrap();
        assert_eq!(table.len(), 1000, "every left row matched once");
        assert!(table.rows.iter().all(|row| row[2].is_some()));
        // One count per pattern of the two-pattern block; the lone
        // required pattern has no tie to break.
        assert_eq!(base.counts.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    /// A store big enough that budget chunking actually engages.
    fn big_store(subjects: u32) -> TripleStore {
        let mut g = Graph::new();
        for i in 0..subjects {
            let s = format!("http://e.org/n{i}");
            g.insert(Triple::iri(&s, rdf::TYPE, Term::iri(foaf::PERSON)));
            g.insert(Triple::iri(
                &s,
                "http://e.org/age",
                Term::integer((i % 80) as i64),
            ));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_plain_query() {
        let st = big_store(2000);
        let text = "PREFIX ex: <http://e.org/> SELECT ?s ?a WHERE { ?s ex:age ?a FILTER(?a > 40) }";
        let plain = crate::query(&st, text).unwrap();
        let budget = Budget::unlimited();
        let budgeted = crate::query_budgeted(&st, text, &budget).unwrap();
        assert!(budgeted.degraded.is_none());
        assert_eq!(
            plain.table().unwrap().rows,
            budgeted.result.table().unwrap().rows
        );
    }

    #[test]
    fn expired_deadline_degrades_instead_of_erroring() {
        let st = big_store(2000);
        let budget = Budget::unlimited().with_expired_deadline();
        let r = crate::query_budgeted(&st, "SELECT ?s WHERE { ?s ?p ?o }", &budget).unwrap();
        let d = r.degraded.expect("must be flagged degraded");
        assert_eq!(d.reason, DegradeReason::DeadlineExceeded);
        assert!(d.coverage < 1.0);
        // The (possibly empty) result is still well-formed.
        assert!(r.result.table().is_some());
    }

    #[test]
    fn row_cap_yields_a_sound_subset_of_the_full_answer() {
        let st = big_store(3000);
        let text = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
        let full: std::collections::HashSet<String> = crate::query(&st, text)
            .unwrap()
            .table()
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let budget = Budget::unlimited().with_row_cap(500);
        let r = crate::query_budgeted(&st, text, &budget).unwrap();
        let d = r.degraded.expect("row cap must trip on 6000 triples");
        assert_eq!(d.reason, DegradeReason::RowCapExceeded);
        assert!(d.coverage > 0.0 && d.coverage < 1.0);
        let table = r.result.table().unwrap();
        assert!(!table.rows.is_empty(), "degraded, not empty");
        assert!(table.rows.len() < full.len());
        for row in &table.rows {
            assert!(
                full.contains(&format!("{row:?}")),
                "degraded rows must be real solutions"
            );
        }
    }

    #[test]
    fn cancellation_flag_degrades_every_form() {
        let st = big_store(500);
        let budget = Budget::unlimited().with_row_cap(u64::MAX);
        budget.cancel();
        let r = crate::query_budgeted(&st, "SELECT ?s WHERE { ?s ?p ?o }", &budget).unwrap();
        assert_eq!(
            r.degraded.expect("cancelled").reason,
            DegradeReason::Cancelled
        );
    }

    #[test]
    fn generous_deadline_does_not_degrade() {
        let st = big_store(300);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::from_secs(600));
        let text = "PREFIX ex: <http://e.org/> SELECT ?s WHERE { ?s ex:age ?a }";
        let r = crate::query_budgeted(&st, text, &budget).unwrap();
        assert!(r.degraded.is_none());
        assert_eq!(
            r.result.table().unwrap().len(),
            crate::query(&st, text).unwrap().table().unwrap().len()
        );
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        // Cross-check the greedy engine against a naive nested-loop join
        // on a two-pattern query.
        let _guard = crate::plan::plan_cache_test_lock();
        let st = store();
        let q = parse_query(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ex: <http://e.org/>\n\
             SELECT ?a ?b ?age WHERE { ?a foaf:knows ?b . ?b ex:age ?age }",
        )
        .unwrap();
        let got = evaluate(&st, &q).unwrap();
        // Naive: enumerate all knows-pairs, then all ages, match on ?b.
        let knows = st.match_decoded(
            st.encode_pattern(None, Some(&Term::iri(foaf::KNOWS)), None)
                .unwrap(),
        );
        let ages = st.match_decoded(
            st.encode_pattern(None, Some(&Term::iri("http://e.org/age")), None)
                .unwrap(),
        );
        let mut expect = Vec::new();
        for k in &knows {
            for a in &ages {
                if k.object == a.subject {
                    expect.push((k.subject.clone(), k.object.clone(), a.object.clone()));
                }
            }
        }
        let table = got.table().unwrap();
        assert_eq!(table.len(), expect.len());
        for row in &table.rows {
            let tuple = (
                row[0].clone().unwrap(),
                row[1].clone().unwrap(),
                row[2].clone().unwrap(),
            );
            assert!(expect.contains(&tuple));
        }
    }
}
