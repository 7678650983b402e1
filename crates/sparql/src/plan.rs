//! BGP planning and execution: two plan builders, one executor.
//!
//! Every pattern group of a query — each required group (one per UNION
//! combination) and each OPTIONAL block — is joined by the same step
//! loop, [`execute`], from a plan one of two builders made:
//!
//! * [`build_plan`], **cost-based**: join orders are costed with the
//!   store's O(1) statistics ([`wodex_store::StoreStats`], prefix-range
//!   estimates) and the cheapest connected extension is taken at every
//!   step; a step whose right side fits in memory materializes that
//!   side *once* (optionally already sorted by the join key, straight
//!   off an SPO/POS/OSP run) and joins in batches — a galloping merge
//!   against the sorted run, or a hash join that builds the smaller
//!   side — and a cyclic group gets a multiway companion step
//!   ([`crate::wco`]). It plans every required group of two or more
//!   patterns under [`Engine::Wco`] and [`Engine::Pairwise`].
//! * [`greedy_plan`], **the reference**: "most bound positions, then
//!   smallest exact base count", every step a per-row index probe,
//!   nothing cached. It plans every group under [`Engine::Greedy`] —
//!   what the differential suites compare the cost-based plans against
//!   — and, under every engine, the groups where there is nothing to
//!   cost: a single pattern, and an OPTIONAL block (joined row by row
//!   from an already bound left side).
//!
//! Cost-based plans are cached by *shape*: the key abstracts constants to
//! [`ShapeSlot::Const`] and renumbers variables by first occurrence, so
//! every query of the form `?a p1 C1 . ?a p2 ?b` shares one cached plan
//! regardless of which constants or variable names it uses. The key
//! also carries the store revision ([`TripleStore::revision`]): mutating
//! a store in place bumps it, so stale plans age out of the LRU
//! naturally instead of being invalidated in place. Under the MVCC
//! write path (`wodex_store::LiveStore`) this becomes **snapshot
//! keying**: a pinned `Snapshot`'s store is immutable, so its revision —
//! and every plan cached against it — stays hot no matter how many
//! commits land concurrently; each commit's new snapshot gets fresh
//! keys instead of evicting its predecessor's plans wholesale.
//!
//! The loop owns everything that is not join logic: filter pushdown,
//! the early-limit rule, per-step row counts and trace spans. The
//! operators hand their per-item closure to one stage driver,
//! [`run_stage`], the only place a join stage meets the [`Budget`]: it
//! polls at `wodex-exec` chunk granularity, and a trip records the
//! stage's completed fraction, samples the surviving rows and lets the
//! remaining steps finish in grace mode — every emitted row is a
//! genuine solution.

use crate::ast::{CompareOp, Expr, TermOrVar, TriplePattern};
use crate::eval::{
    effective_bool, eval_expr, expr_vars, retain_parallel, sparql_metrics, DegradeState, Row,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use wodex_obs::{Counter, Histogram, PlanStepTrace, QueryTrace, Stage};
use wodex_rdf::{Term, TermId, Value};
use wodex_resilience::Budget;
use wodex_store::cache::CacheStats;
use wodex_store::{EncodedTriple, LruCache, Pattern, TripleStore};

/// Cached plans kept across queries (per process).
const PLAN_CACHE_CAP: usize = 256;

/// Below this many input rows a batched join cannot pay for
/// materializing its right side — per-row index probes win.
const MIN_BATCH_INPUT: usize = 64;

/// A batched join materializes its whole right side; if that side is
/// estimated at more than this many triples *per input row*, scanning
/// it costs more than probing the index once per row.
const MAX_RIGHT_BLOWUP: usize = 16;

/// Below this many total input triples (summed over the group's
/// patterns) the multiway join cannot pay for materializing and
/// sorting every pattern — the pairwise operators win outright.
const MIN_WCO_INPUT: u64 = 64;

/// The multiway join's up-front cost is the summed pattern estimates;
/// it runs only when that is within this factor of the pairwise plan's
/// estimated intermediate volume. A cyclic group anchored by a highly
/// selective pattern (tiny pairwise intermediates) stays pairwise.
const WCO_COST_SLACK: u64 = 4;

// ----- metrics -----

/// Global registry series for the planner.
struct PlanMetrics {
    built: Arc<Counter>,
    cache_lookups: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Rows produced per executed operator kind, see [`op_kind_index`].
    rows: [Arc<Counter>; 5],
    /// Cursor `seek_geq` calls by the multiway join, across all levels.
    wco_seeks: Arc<Counter>,
    /// Trie descents (value advances) by the multiway join.
    wco_advances: Arc<Counter>,
    /// Per-join-step q-error (max(est,actual)/min(est,actual)), ×100.
    qerror: Arc<Histogram>,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        let rows = |op: &'static str| {
            r.counter_with(
                "wodex_plan_rows_total",
                "Binding rows produced per planned operator",
                &[("op", op)],
            )
        };
        PlanMetrics {
            built: r.counter(
                "wodex_plan_built_total",
                "Query plans constructed (cache misses that reached the builder)",
            ),
            cache_lookups: r.counter("wodex_plan_cache_lookups_total", "Plan cache lookups"),
            cache_hits: r.counter("wodex_plan_cache_hits_total", "Plan cache hits"),
            cache_misses: r.counter("wodex_plan_cache_misses_total", "Plan cache misses"),
            rows: [
                rows("scan"),
                rows("merge_join"),
                rows("hash_join"),
                rows("nested_loop"),
                rows("wco"),
            ],
            wco_seeks: r.counter(
                "wodex_plan_wco_seeks_total",
                "Sorted-cursor seek_geq calls performed by the multiway (WCO) join",
            ),
            wco_advances: r.counter(
                "wodex_plan_wco_advances_total",
                "Sorted-cursor trie descents performed by the multiway (WCO) join",
            ),
            qerror: r.histogram_with(
                "wodex_plan_qerror_x100",
                "Estimated-vs-actual cardinality ratio per join step (x100; 100 = exact)",
                &[],
                &[100, 200, 400, 800, 1600, 6400, 25600, 102400],
                0.01,
            ),
        }
    })
}

// ----- compiled patterns -----

/// One pattern position after constant resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant, already interned — encoded exactly once per query
    /// instead of once per probed row.
    Const(TermId),
    /// A variable, by global index into the query's `Row`.
    Var(usize),
    /// A variable pruned by the algebra pass ([`crate::algebra`]): it
    /// still matches anything and still multiplies row counts, but its
    /// binding is never recorded (and so never decoded).
    Any,
}

/// A triple pattern with constants pre-encoded and variables resolved
/// to row indexes. This is the per-row hot-path representation: `fill`
/// and `bind` touch only positional arrays, never a name map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompiledPattern {
    slots: [Slot; 3],
}

impl CompiledPattern {
    /// Compiles a pattern; `None` when a constant is not in the
    /// dictionary (the whole group can have no matches).
    pub(crate) fn compile(
        store: &TripleStore,
        p: &TriplePattern,
        var_idx: &HashMap<&str, usize>,
    ) -> Option<CompiledPattern> {
        let slot = |tv: &TermOrVar| -> Option<Slot> {
            match tv {
                TermOrVar::Term(t) => store.id_of(t).map(Slot::Const),
                TermOrVar::Var(v) => Some(match var_idx.get(v.as_str()) {
                    Some(&i) => Slot::Var(i),
                    // Not in the row layout: pruned by the algebra pass.
                    None => Slot::Any,
                }),
            }
        };
        Some(CompiledPattern {
            slots: [slot(&p.s)?, slot(&p.p)?, slot(&p.o)?],
        })
    }

    /// The constant-only pattern (variables unconstrained).
    pub(crate) fn base(&self) -> Pattern {
        let enc = |s: Slot| match s {
            Slot::Const(id) => Some(id),
            Slot::Var(_) | Slot::Any => None,
        };
        Pattern {
            s: enc(self.slots[0]),
            p: enc(self.slots[1]),
            o: enc(self.slots[2]),
        }
    }

    /// The pattern with constants and the row's bound variables filled.
    pub(crate) fn fill(&self, row: &Row) -> Pattern {
        let enc = |s: Slot| match s {
            Slot::Const(id) => Some(id),
            Slot::Var(i) => row[i],
            Slot::Any => None,
        };
        Pattern {
            s: enc(self.slots[0]),
            p: enc(self.slots[1]),
            o: enc(self.slots[2]),
        }
    }

    /// Extends `row` with the bindings `t` implies; `None` on a
    /// conflict (same variable matched to different ids).
    pub(crate) fn bind(&self, row: &Row, t: &EncodedTriple) -> Option<Row> {
        let mut new_row = row.clone();
        for (slot, id) in self.slots.iter().zip(t) {
            if let Slot::Var(i) = slot {
                match new_row[*i] {
                    Some(existing) if existing.0 != *id => return None,
                    _ => new_row[*i] = Some(TermId(*id)),
                }
            }
        }
        Some(new_row)
    }

    /// The first pattern position holding variable `v`, if any.
    fn position_of(&self, v: usize) -> Option<usize> {
        self.slots.iter().position(|s| *s == Slot::Var(v))
    }

    /// Global indexes of the variables this pattern binds (a variable
    /// used twice comes twice).
    fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Var(i) => Some(*i),
            Slot::Const(_) | Slot::Any => None,
        })
    }

    /// How many positions a probe can constrain once the `bound`
    /// variables have values: constants plus bound variables. A pruned
    /// variable never has a value.
    fn bound_positions(&self, bound: &[bool]) -> usize {
        self.slots
            .iter()
            .filter(|s| match s {
                Slot::Const(_) => true,
                Slot::Var(i) => bound[*i],
                Slot::Any => false,
            })
            .count()
    }
}

// ----- compiled filters -----

/// One conjunct of a FILTER, specialized where the expression shape
/// allows constant work to be hoisted out of the per-row loop.
#[derive(Debug)]
enum FilterKind<'q> {
    /// `?v = <iri>` / `?v != <iri>` (or flipped): dictionary interning
    /// makes term equality id equality, so the constant is interned
    /// once and each row costs one integer compare. `id` is `None`
    /// when the constant is not in the dictionary (nothing can equal
    /// it — equality is always false, inequality true for bound rows).
    IdEq {
        var: usize,
        id: Option<TermId>,
        negate: bool,
    },
    /// `?v OP literal` (or flipped): the constant's [`Value`] is
    /// parsed once; each row does one `Value::from_literal` on its own
    /// term plus a comparison, replicating `eval::compare`'s
    /// literal/literal and term/term arms exactly.
    ValueCmp {
        var: usize,
        op: CompareOp,
        value: Value,
        /// True when the constant is the *left* operand.
        flipped: bool,
    },
    /// Anything else: the general recursive evaluator.
    General(&'q Expr),
}

/// A FILTER compiled for repeated application: the variables it needs
/// (for readiness, matching the greedy evaluator's gating on the whole
/// expression) plus its conjuncts, each possibly specialized.
#[derive(Debug)]
pub(crate) struct CompiledFilter<'q> {
    /// Global indexes of every variable the original expression
    /// mentions. The filter runs only once all are bound — identical
    /// gating to the uncompiled path, including the case of a variable
    /// that never binds in this pattern combination (the filter then
    /// never runs, same as before).
    pub(crate) vars: Vec<usize>,
    conjuncts: Vec<FilterKind<'q>>,
}

/// Splits a top-level conjunction into its conjuncts. Sound because
/// `eval::eval_expr` maps an error (`None`) in either operand of `&&`
/// to an overall error, and the caller maps errors to `false` — i.e.
/// `unwrap_or(false)` of the conjunction equals the AND of the
/// `unwrap_or(false)` of the conjuncts.
fn split_conjuncts<'q>(e: &'q Expr, out: &mut Vec<&'q Expr>) {
    if let Expr::And(a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e);
    }
}

impl<'q> CompiledFilter<'q> {
    pub(crate) fn compile(
        store: &TripleStore,
        e: &'q Expr,
        var_idx: &HashMap<&str, usize>,
    ) -> CompiledFilter<'q> {
        let vars: Vec<usize> = expr_vars(e).iter().map(|v| var_idx[v.as_str()]).collect();
        let mut exprs = Vec::new();
        split_conjuncts(e, &mut exprs);
        let conjuncts = exprs
            .into_iter()
            .map(|c| FilterKind::compile(store, c, var_idx))
            .collect();
        CompiledFilter { vars, conjuncts }
    }

    /// Evaluates the filter on a row with every `vars` entry bound.
    pub(crate) fn matches(
        &self,
        store: &TripleStore,
        row: &Row,
        var_idx: &HashMap<&str, usize>,
    ) -> bool {
        self.conjuncts
            .iter()
            .all(|c| c.matches(store, row, var_idx))
    }
}

impl<'q> FilterKind<'q> {
    fn compile(store: &TripleStore, e: &'q Expr, var_idx: &HashMap<&str, usize>) -> FilterKind<'q> {
        if let Expr::Compare(a, op, b) = e {
            let parts = match (a.as_ref(), b.as_ref()) {
                (Expr::Var(v), Expr::Const(t)) => Some((v, *op, t, false)),
                (Expr::Const(t), Expr::Var(v)) => Some((v, *op, t, true)),
                _ => None,
            };
            if let Some((v, op, t, flipped)) = parts {
                let var = var_idx[v.as_str()];
                match t {
                    Term::Iri(_) | Term::Blank(_)
                        if matches!(op, CompareOp::Eq | CompareOp::Ne) =>
                    {
                        return FilterKind::IdEq {
                            var,
                            id: store.id_of(t),
                            negate: op == CompareOp::Ne,
                        };
                    }
                    Term::Literal(l) => {
                        return FilterKind::ValueCmp {
                            var,
                            op,
                            value: Value::from_literal(l),
                            flipped,
                        };
                    }
                    _ => {}
                }
            }
        }
        FilterKind::General(e)
    }

    fn matches(&self, store: &TripleStore, row: &Row, var_idx: &HashMap<&str, usize>) -> bool {
        match self {
            FilterKind::IdEq { var, id, negate } => match row[*var] {
                // Unbound: the comparison errors, errors are false —
                // for both `=` and `!=`.
                None => false,
                Some(rid) => (Some(rid) == *id) != *negate,
            },
            FilterKind::ValueCmp {
                var,
                op,
                value,
                flipped,
            } => {
                let Some(rid) = row[*var] else { return false };
                match store.term(rid) {
                    Term::Literal(l) => {
                        let rv = Value::from_literal(l);
                        let comparable = (rv.is_numeric() && value.is_numeric())
                            || (rv.is_temporal() && value.is_temporal())
                            || matches!((&rv, value), (Value::Text(_), Value::Text(_)))
                            || matches!((&rv, value), (Value::Boolean(_), Value::Boolean(_)));
                        if !comparable && !matches!(op, CompareOp::Eq | CompareOp::Ne) {
                            return false;
                        }
                        let mut ord = rv.total_cmp(value);
                        if *flipped {
                            ord = ord.reverse();
                        }
                        op_holds(*op, ord)
                    }
                    // IRI/bnode vs literal: only (in)equality is
                    // meaningful, and they are never equal.
                    _ => matches!(op, CompareOp::Ne),
                }
            }
            FilterKind::General(e) => eval_expr(store, e, row, var_idx)
                .and_then(effective_bool)
                .unwrap_or(false),
        }
    }
}

fn op_holds(op: CompareOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// Compiles a filter list, resolving every constant once.
pub(crate) fn compile_filters<'q>(
    store: &TripleStore,
    filters: &[&'q Expr],
    var_idx: &HashMap<&str, usize>,
) -> Vec<CompiledFilter<'q>> {
    filters
        .iter()
        .map(|f| CompiledFilter::compile(store, f, var_idx))
        .collect()
}

// ----- plan shapes and the cache key -----

/// One pattern position in a plan-cache key: constants are abstracted
/// (any constant in this position keys the same), variables are
/// renumbered by first occurrence within the pattern group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeSlot {
    /// Some constant (which one does not change the join structure).
    Const,
    /// The `n`-th distinct variable of the group, in first-occurrence
    /// order.
    Var(u16),
}

/// Which plan builder serves a query's pattern groups (see the module
/// docs). The engines answer identically; they differ in join order and
/// operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Cost-based plans, with the worst-case-optimal multiway join
    /// ([`crate::wco`]) on cyclic groups. The default.
    #[default]
    Wco,
    /// Cost-based plans over the pairwise operators only.
    Pairwise,
    /// Greedy plans for every group: the reference the differential
    /// suites hold the cost-based engines to.
    Greedy,
}

impl Engine {
    /// Every engine, for suites that compare them.
    pub const ALL: [Engine; 3] = [Engine::Wco, Engine::Pairwise, Engine::Greedy];
}

/// Plan-cache key: store revision, engine, and the group's abstract
/// shape. The engine matters: a plan built for [`Engine::Pairwise`]
/// carries no multiway step, so switching engines at runtime must never
/// be served a plan cached for the other one. The revision doubles as a
/// snapshot pin: an MVCC snapshot's store never changes revision, so
/// queries against a pinned snapshot keep hitting its cached plans
/// while writers publish new snapshots under new revisions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    revision: u64,
    engine: Engine,
    shape: Vec<[ShapeSlot; 3]>,
}

/// Computes the abstract shape of a pattern group, plus the variable
/// names in local (first-occurrence) order so a cached plan's local
/// variable ids can be translated back to any query's global indexes.
fn combo_shape(combo: &[TriplePattern]) -> (Vec<[ShapeSlot; 3]>, Vec<String>) {
    let mut names: Vec<String> = Vec::new();
    let mut shape = Vec::with_capacity(combo.len());
    for p in combo {
        let mut slot = |tv: &TermOrVar| match tv {
            TermOrVar::Term(_) => ShapeSlot::Const,
            TermOrVar::Var(v) => {
                let i = names.iter().position(|n| n == v).unwrap_or_else(|| {
                    names.push(v.clone());
                    names.len() - 1
                });
                ShapeSlot::Var(i as u16)
            }
        };
        shape.push([slot(&p.s), slot(&p.p), slot(&p.o)]);
    }
    (shape, names)
}

// ----- plans -----

/// The join operator a plan step runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// First step: materialize the pattern's matches.
    Scan,
    /// One shared variable sitting on the pattern's natural index sort
    /// position: materialize the right side already sorted by the join
    /// key (straight off an index run, zero sort) and join each row by
    /// galloping into the sorted run.
    MergeJoin {
        /// Local id of the join variable.
        var: u16,
        /// Triple position (0/1/2) the right side is sorted by.
        right_pos: usize,
    },
    /// Shared variables without a usable sort order: build a hash table
    /// on the smaller side, probe the larger in parallel batches.
    HashJoin {
        /// Local ids of the join variables.
        keys: Vec<u16>,
    },
    /// Per-row index probe. The cost-based builder picks it when no
    /// variable is shared (a cross product constrained only by the
    /// pattern's constants); the greedy builder emits nothing else.
    NestedLoop,
    /// The multiway join over the *whole* group in one step — only ever
    /// a plan's [`Plan::wco`] companion, never one of its `steps`.
    Wco(WcoPlan),
}

impl PlanOp {
    /// Stable operator label, as surfaced in traces and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Scan => "scan",
            PlanOp::MergeJoin { .. } => "merge_join",
            PlanOp::HashJoin { .. } => "hash_join",
            PlanOp::NestedLoop => "nested_loop",
            PlanOp::Wco(_) => "wco",
        }
    }
}

/// Index into [`PlanMetrics::rows`] for an *executed* operator label
/// (which may differ from the planned one after a runtime downgrade).
fn op_kind_index(op: &str) -> usize {
    match op {
        "scan" => 0,
        "merge_join" => 1,
        "hash_join" => 2,
        "wco" => 4,
        _ => 3,
    }
}

/// One step of a plan: which pattern joins next, with which operator,
/// and the planner's output-cardinality estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index into the pattern group (unused by [`PlanOp::Wco`], which
    /// joins all of it).
    pub pattern: usize,
    /// The operator.
    pub op: PlanOp,
    /// Estimated rows after this step (from store statistics; the
    /// greedy builder does not estimate and leaves 0).
    pub est_rows: u64,
}

impl PlanStep {
    /// The patterns of an `n`-pattern group this step joins in.
    fn patterns(&self, n: usize) -> std::ops::Range<usize> {
        match self.op {
            PlanOp::Wco(_) => 0..n,
            _ => self.pattern..self.pattern + 1,
        }
    }
}

/// A join order plus per-step operators for one pattern-group shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Steps in execution order; every pattern appears exactly once.
    pub steps: Vec<PlanStep>,
    /// Companion multiway (worst-case-optimal) step, attached when the
    /// group's join graph is cyclic and the engine allows it. The
    /// pairwise `steps` are always kept: the runtime guard in
    /// [`Plan::runnable`] may still pick them, so a cached multiway plan
    /// can never regress below the pairwise operators.
    pub wco: Option<PlanStep>,
}

/// A variable-elimination-order leapfrog-triejoin plan over the whole
/// pattern group, executed by [`crate::wco`]. Any pairwise join order
/// over a *cyclic* group (triangles, cliques, star-cycles) materializes
/// an intermediate asymptotically larger than the output; the multiway
/// join intersects all patterns one variable at a time instead, which
/// meets the AGM output bound up to log factors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcoPlan {
    /// Local variable ids in elimination order — one join level each.
    pub elim: Vec<u16>,
    /// Per pattern: `(level, triple position)` for each of its
    /// variables, sorted by level. This doubles as the lexicographic
    /// sort order the pattern's run is materialized in
    /// ([`TripleStore::match_pattern_sorted_lex`]).
    pub levels: Vec<Vec<(usize, usize)>>,
    /// The pairwise plan's summed per-step estimates: the intermediate
    /// volume the runtime guard weighs multiway materialization against.
    pub pairwise_cost: u64,
}

/// Whether the group's join graph (the hypergraph whose edges are each
/// pattern's variable set) is cyclic, decided by GYO ear removal:
/// repeatedly drop variables private to a single edge and edges covered
/// by another edge. The hypergraph is α-acyclic iff this reduces to
/// nothing; a non-empty fixpoint (triangle, clique, n-cycle) is the
/// core on which pairwise joins are provably suboptimal.
fn shape_is_cyclic(shape: &[[ShapeSlot; 3]]) -> bool {
    let mut edges: Vec<Vec<u16>> = shape
        .iter()
        .map(|p| {
            let mut vs: Vec<u16> = p
                .iter()
                .filter_map(|s| match s {
                    ShapeSlot::Var(v) => Some(*v),
                    ShapeSlot::Const => None,
                })
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        })
        .filter(|e| !e.is_empty())
        .collect();
    loop {
        let mut changed = false;
        // Ear rule 1: a variable occurring in exactly one edge
        // constrains nothing else — drop it.
        let mut occurs: HashMap<u16, usize> = HashMap::new();
        for e in &edges {
            for &v in e {
                *occurs.entry(v).or_insert(0) += 1;
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|v| occurs[v] > 1);
            changed |= e.len() != before;
        }
        // Ear rule 2: drop empty edges and edges covered by another
        // (one at a time; equal edges keep their first copy).
        if let Some(i) = (0..edges.len()).find(|&i| {
            edges[i].is_empty()
                || edges.iter().enumerate().any(|(j, other)| {
                    j != i
                        && edges[i].iter().all(|v| other.contains(v))
                        && (edges[i] != *other || j < i)
                })
        }) {
            edges.remove(i);
            changed = true;
        }
        if !changed {
            return !edges.is_empty();
        }
    }
}

/// Builds the multiway companion plan for a cyclic group, or `None`
/// when the group is acyclic or ineligible (a pattern repeating a
/// variable would need an intra-pattern equality the trie cursors do
/// not model).
///
/// The elimination order is greedy: next comes the variable whose
/// cheapest containing pattern is smallest, preferring variables
/// connected to those already eliminated (ties break on variable id,
/// keeping the order — and therefore the cached sort orders —
/// deterministic).
fn build_wco(shape: &[[ShapeSlot; 3]], bases: &[f64], steps: &[PlanStep]) -> Option<WcoPlan> {
    if !shape_is_cyclic(shape) {
        return None;
    }
    let nlocals = shape
        .iter()
        .flatten()
        .filter_map(|s| match s {
            ShapeSlot::Var(v) => Some(*v as usize + 1),
            ShapeSlot::Const => None,
        })
        .max()
        .unwrap_or(0);
    for p in shape {
        let mut vs: Vec<u16> = p
            .iter()
            .filter_map(|s| match s {
                ShapeSlot::Var(v) => Some(*v),
                ShapeSlot::Const => None,
            })
            .collect();
        vs.sort_unstable();
        let distinct = {
            let mut d = vs.clone();
            d.dedup();
            d.len()
        };
        if distinct != vs.len() {
            return None;
        }
    }
    let contains = |pi: usize, v: u16| -> bool { shape[pi].contains(&ShapeSlot::Var(v)) };
    let score = |v: u16| -> f64 {
        (0..shape.len())
            .filter(|&i| contains(i, v))
            .map(|i| bases[i])
            .fold(f64::INFINITY, f64::min)
    };
    let mut chosen = vec![false; nlocals];
    let mut elim: Vec<u16> = Vec::with_capacity(nlocals);
    for _ in 0..nlocals {
        let connected = |v: u16| -> bool {
            (0..shape.len()).any(|i| {
                contains(i, v)
                    && shape[i]
                        .iter()
                        .any(|s| matches!(s, ShapeSlot::Var(w) if chosen[*w as usize]))
            })
        };
        let pool: Vec<u16> = {
            let conn: Vec<u16> = (0..nlocals as u16)
                .filter(|&v| !chosen[v as usize] && connected(v))
                .collect();
            if conn.is_empty() {
                (0..nlocals as u16)
                    .filter(|&v| !chosen[v as usize])
                    .collect()
            } else {
                conn
            }
        };
        let best = pool
            .into_iter()
            .min_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b)))
            .expect("pool is non-empty while variables remain");
        chosen[best as usize] = true;
        elim.push(best);
    }
    let levels: Vec<Vec<(usize, usize)>> = shape
        .iter()
        .map(|p| {
            let mut ls = Vec::new();
            for (lvl, &v) in elim.iter().enumerate() {
                if let Some(pos) = p.iter().position(|s| *s == ShapeSlot::Var(v)) {
                    ls.push((lvl, pos));
                }
            }
            ls
        })
        .collect();
    Some(WcoPlan {
        elim,
        levels,
        pairwise_cost: steps.iter().map(|s| s.est_rows.max(1)).sum(),
    })
}

/// Builds a plan for `shape` against the store's current statistics.
///
/// Ordering is greedy smallest-estimated-output-first over *connected*
/// candidates (patterns sharing a bound variable), falling back to the
/// full candidate set when nothing connects (a genuine cross product).
/// The estimate for joining pattern `P` into an intermediate of `L`
/// rows is `L · |P| / Π min(|P|, d(v))` over each shared variable `v`,
/// where `|P|` is the pattern's constant-only match estimate and
/// `d(v)` the store's distinct-value count for the position `v`
/// occupies — the classic independence/containment assumption, using
/// only O(1) statistics.
fn build_plan(
    store: &TripleStore,
    shape: &[[ShapeSlot; 3]],
    compiled: &[CompiledPattern],
    engine: Engine,
) -> Plan {
    let stats = store.stats();
    let bases: Vec<f64> = compiled
        .iter()
        .map(|c| store.estimate_pattern(c.base()) as f64)
        .collect();
    let nlocals = shape
        .iter()
        .flatten()
        .filter_map(|s| match s {
            ShapeSlot::Var(v) => Some(*v as usize + 1),
            ShapeSlot::Const => None,
        })
        .max()
        .unwrap_or(0);
    let mut bound = vec![false; nlocals];
    let mut remaining: Vec<usize> = (0..shape.len()).collect();
    let mut steps = Vec::with_capacity(shape.len());
    let mut current_rows = 1.0f64;

    while !remaining.is_empty() {
        let first = steps.is_empty();
        let shared = |i: usize| -> Vec<u16> {
            let mut out: Vec<u16> = shape[i]
                .iter()
                .filter_map(|s| match s {
                    ShapeSlot::Var(v) if bound[*v as usize] => Some(*v),
                    _ => None,
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let estimate = |i: usize| -> f64 {
            let mut est = if first {
                bases[i]
            } else {
                current_rows * bases[i]
            };
            for v in shared(i) {
                let pos = shape[i]
                    .iter()
                    .position(|s| *s == ShapeSlot::Var(v))
                    .expect("shared variable occurs in pattern");
                let d = stats
                    .distinct_at(pos)
                    .min(bases[i].max(1.0) as usize)
                    .max(1);
                est /= d as f64;
            }
            est
        };
        // Prefer connected extensions; cross products only when forced.
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| !shared(i).is_empty())
            .collect();
        let pool: &[usize] = if !first && !connected.is_empty() {
            &connected
        } else {
            &remaining
        };
        let mut best = pool[0];
        let mut best_est = estimate(best);
        for &i in &pool[1..] {
            let e = estimate(i);
            if e < best_est {
                best = i;
                best_est = e;
            }
        }
        remaining.retain(|&i| i != best);

        let op = if first {
            PlanOp::Scan
        } else {
            let sh = shared(best);
            if sh.is_empty() {
                PlanOp::NestedLoop
            } else if sh.len() == 1 {
                match merge_position(store, &shape[best], sh[0]) {
                    Some(pos) => PlanOp::MergeJoin {
                        var: sh[0],
                        right_pos: pos,
                    },
                    None => PlanOp::HashJoin { keys: sh },
                }
            } else {
                PlanOp::HashJoin { keys: sh }
            }
        };
        for s in &shape[best] {
            if let ShapeSlot::Var(v) = s {
                bound[*v as usize] = true;
            }
        }
        current_rows = best_est.max(0.0);
        steps.push(PlanStep {
            pattern: best,
            op,
            est_rows: current_rows.round() as u64,
        });
    }
    // The multiway step's estimate is the pairwise plan's final one —
    // the q-error baseline for the single `wco` step.
    let wco = (engine == Engine::Wco)
        .then(|| build_wco(shape, &bases, &steps))
        .flatten()
        .map(|wp| PlanStep {
            pattern: 0,
            op: PlanOp::Wco(wp),
            est_rows: steps.last().map_or(0, |s| s.est_rows),
        });
    Plan { steps, wco }
}

/// Whether a merge join on local variable `var` can read the right
/// pattern's matches pre-sorted straight off an index run: the store's
/// unsorted tail must be empty and the join variable must sit on the
/// run's natural sort position for the pattern's constant shape.
fn merge_position(store: &TripleStore, pshape: &[ShapeSlot; 3], var: u16) -> Option<usize> {
    if store.tail_len() != 0 {
        return None;
    }
    let natural = TripleStore::natural_position(
        pshape[0] == ShapeSlot::Const,
        pshape[1] == ShapeSlot::Const,
        pshape[2] == ShapeSlot::Const,
    )?;
    (pshape[natural] == ShapeSlot::Var(var)).then_some(natural)
}

// ----- the plan cache -----

fn plan_cache() -> &'static Mutex<LruCache<PlanKey, Arc<Plan>>> {
    static CACHE: OnceLock<Mutex<LruCache<PlanKey, Arc<Plan>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(LruCache::new(PLAN_CACHE_CAP)))
}

/// Snapshot of the process-wide plan cache counters (hits, misses,
/// evictions) — exposed for invariant tests and `explain` tooling.
pub fn plan_cache_stats() -> CacheStats {
    plan_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .stats()
}

/// Serializes the unit tests that reach [`plan_for`]: the cache and its
/// counters are process-wide, and one of those tests pins exact deltas.
/// A unit test that evaluates a required group of two or more patterns
/// under a cost-based engine holds this guard while it does.
#[cfg(test)]
pub(crate) fn plan_cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Looks up (or builds and caches) the plan for a pattern group.
fn plan_for(
    store: &TripleStore,
    shape: Vec<[ShapeSlot; 3]>,
    compiled: &[CompiledPattern],
    engine: Engine,
) -> Arc<Plan> {
    let m = plan_metrics();
    m.cache_lookups.inc();
    let key = PlanKey {
        revision: store.revision(),
        engine,
        shape,
    };
    if let Some(plan) = plan_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
    {
        m.cache_hits.inc();
        return Arc::clone(plan);
    }
    m.cache_misses.inc();
    // Build outside the lock: statistics reads can take microseconds on
    // a cold store and must not serialize concurrent queries.
    let plan = Arc::new(build_plan(store, &key.shape, compiled, engine));
    m.built.inc();
    plan_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, Arc::clone(&plan), 1);
    plan
}

// ----- the reference builder -----

/// Compiles a group's patterns against the row layout; `None` when a
/// constant is not in the dictionary (the group can match nothing).
fn compile_group(
    store: &TripleStore,
    patterns: &[TriplePattern],
    var_idx: &HashMap<&str, usize>,
) -> Option<Vec<CompiledPattern>> {
    patterns
        .iter()
        .map(|p| CompiledPattern::compile(store, p, var_idx))
        .collect()
}

/// Exact constant-only match counts, the greedy builder's tie-break.
/// A lone pattern has no tie to break and is not counted.
fn base_counts(store: &TripleStore, compiled: &[CompiledPattern]) -> Vec<usize> {
    if compiled.len() < 2 {
        return vec![0; compiled.len()];
    }
    compiled
        .iter()
        .map(|c| store.count_pattern(c.base()))
        .collect()
}

/// The reference plan builder — the classic selectivity heuristic: next
/// comes the pattern with the most positions a probe can constrain
/// (constants plus variables bound so far, `bound` seeding those the
/// input rows already carry), ties going to the smallest base count.
/// Every step is a per-row index probe. Cheap enough to run per query
/// and per OPTIONAL left row, so nothing is cached.
fn greedy_plan(
    compiled: &[CompiledPattern],
    counts: &[usize],
    mut bound: Vec<bool>,
) -> Vec<PlanStep> {
    let mut remaining: Vec<usize> = (0..compiled.len()).collect();
    let mut steps = Vec::with_capacity(compiled.len());
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &pi)| {
                (
                    compiled[pi].bound_positions(&bound),
                    std::cmp::Reverse(counts[pi]),
                )
            })
            .expect("remaining non-empty");
        let pattern = remaining.remove(pos);
        for v in compiled[pattern].vars() {
            bound[v] = true;
        }
        steps.push(PlanStep {
            pattern,
            op: PlanOp::NestedLoop,
            est_rows: 0,
        });
    }
    steps
}

// ----- execution -----

/// What every join stage of one query shares.
pub(crate) struct ExecCx<'a> {
    pub(crate) store: &'a TripleStore,
    /// The row layout: variable name → row slot.
    pub(crate) var_idx: &'a HashMap<&'a str, usize>,
    pub(crate) budget: &'a Budget,
    pub(crate) trace: &'a QueryTrace,
}

/// Plan steps bound to the group they join: the patterns compiled
/// against this query's row layout, and the row slot of each of the
/// plan's shape-local variable ids (empty for greedy plans, whose
/// probe steps name no variable).
struct BoundPlan<'a> {
    steps: &'a [PlanStep],
    compiled: &'a [CompiledPattern],
    local_to_global: &'a [usize],
    /// Whether the last step may stop at the early limit instead of
    /// running in full. True of greedy plans, whose row counts nobody
    /// records; a cost-based step's output count is the `act=` its
    /// estimate is held to, so it runs in full and is cut afterwards.
    stops_early: bool,
}

impl Plan {
    /// The steps to run against the live store. Runtime downgrade
    /// discipline: the multiway join pays Σ|Pᵢ| up front to materialize
    /// and sort every pattern, so it runs only when that cost is both
    /// non-trivial and within `WCO_COST_SLACK` of the pairwise plan's
    /// estimated intermediate volume — otherwise the cached pairwise
    /// steps run unchanged, and a cached multiway plan can never
    /// regress below the pairwise operators.
    fn runnable(&self, store: &TripleStore, compiled: &[CompiledPattern]) -> &[PlanStep] {
        if let Some(
            step @ PlanStep {
                op: PlanOp::Wco(wp),
                ..
            },
        ) = &self.wco
        {
            let wco_cost: u64 = compiled
                .iter()
                .map(|cp| store.estimate_pattern(cp.base()) as u64)
                .sum();
            if wco_cost >= MIN_WCO_INPUT
                && wco_cost <= wp.pairwise_cost.saturating_mul(WCO_COST_SLACK)
            {
                return std::slice::from_ref(step);
            }
        }
        &self.steps
    }
}

/// Joins one required pattern group from the all-unbound row: applies
/// `filters` as soon as their variables bind, honors `early_limit` on
/// the final step, and degrades under the budget (trip → sample →
/// grace). Groups of two or more patterns take the cost-based plan from
/// the shape-keyed cache unless the engine is [`Engine::Greedy`]; a
/// single pattern has nothing to cost and never touches the cache.
pub(crate) fn join_group(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    engine: Engine,
    combo: &[TriplePattern],
    filters: &[&Expr],
    early_limit: Option<usize>,
) -> Vec<Row> {
    let store = cx.store;
    let plan_span = cx.trace.span(Stage::Plan);
    let Some(compiled) = compile_group(store, combo, cx.var_idx) else {
        return Vec::new();
    };
    let pending = compile_filters(store, filters, cx.var_idx);
    let nvars = cx.var_idx.len();
    let initial = vec![vec![None; nvars]];
    if engine == Engine::Greedy || combo.len() < 2 {
        let steps = greedy_plan(
            &compiled,
            &base_counts(store, &compiled),
            vec![false; nvars],
        );
        drop(plan_span);
        let plan = BoundPlan {
            steps: &steps,
            compiled: &compiled,
            local_to_global: &[],
            stops_early: true,
        };
        return execute(cx, deg, &plan, initial, pending, early_limit).0;
    }
    let (shape, local_names) = combo_shape(combo);
    // `usize::MAX` marks a variable the algebra pass pruned from the
    // row layout; join keys always occur twice and are never pruned,
    // so the sentinel is only ever read by the multiway row emitter.
    let local_to_global: Vec<usize> = local_names
        .iter()
        .map(|n| cx.var_idx.get(n.as_str()).copied().unwrap_or(usize::MAX))
        .collect();
    let plan = plan_for(store, shape, &compiled, engine);
    drop(plan_span);
    let steps = plan.runnable(store, &compiled);
    let bound = BoundPlan {
        steps,
        compiled: &compiled,
        local_to_global: &local_to_global,
        stops_early: false,
    };
    let (rows, ran) = execute(cx, deg, &bound, initial, pending, early_limit);
    // Only cost-based steps carry an estimate worth holding to account.
    let m = plan_metrics();
    for (step, &(op, actual)) in steps.iter().zip(&ran) {
        m.rows[op_kind_index(op)].add(actual);
        let (est, act) = (step.est_rows.max(1), actual.max(1));
        m.qerror.observe(est.max(act) * 100 / est.min(act));
        if cx.trace.is_enabled() {
            cx.trace.record_plan_step(PlanStepTrace {
                op,
                detail: combo[step.patterns(combo.len())]
                    .iter()
                    .map(fmt_pattern)
                    .collect::<Vec<_>>()
                    .join(" . "),
                est_rows: step.est_rows,
                actual_rows: actual,
            });
        }
    }
    rows
}

/// Left-joins one OPTIONAL block onto `rows`. The block is compiled and
/// counted once; each left row is then joined on its own, in the greedy
/// order for the variables *that row* already binds (rows left unmatched
/// by an earlier block bind fewer), and kept as it is when nothing
/// matches.
pub(crate) fn left_join(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    block: &[TriplePattern],
    rows: Vec<Row>,
) -> Vec<Row> {
    let plan_span = cx.trace.span(Stage::Plan);
    let group = compile_group(cx.store, block, cx.var_idx).map(|compiled| {
        let counts = base_counts(cx.store, &compiled);
        (compiled, counts)
    });
    drop(plan_span);
    let total = rows.len();
    let mut next = Vec::with_capacity(total);
    for (i, row) in rows.into_iter().enumerate() {
        // One budget poll per left-joined row; on a trip the processed
        // prefix survives (every kept row is fully left-joined — a row
        // kept *without* attempting the join could wrongly report its
        // optional variables unbound).
        if !deg.active() && !cx.budget.is_unlimited() {
            if let Some(reason) = cx.budget.exceeded() {
                deg.trip(reason, i as f64 / total as f64);
                break;
            }
        }
        let matched = match &group {
            // A constant missing from the dictionary: nothing matches.
            None => Vec::new(),
            Some((compiled, counts)) => {
                let steps =
                    greedy_plan(compiled, counts, row.iter().map(Option::is_some).collect());
                let plan = BoundPlan {
                    steps: &steps,
                    compiled,
                    local_to_global: &[],
                    stops_early: true,
                };
                execute(cx, deg, &plan, vec![row.clone()], Vec::new(), None).0
            }
        };
        if matched.is_empty() {
            next.push(row);
        } else {
            next.extend(matched);
        }
    }
    if deg.active() {
        deg.sample(&mut next);
    }
    next
}

/// The step loop under every pattern group: runs `plan`'s steps over
/// `rows`, applying each `pending` filter as soon as its variables are
/// bound and cutting the output at `early_limit`. Returns the joined
/// rows and, per step run, the operator executed (which a runtime
/// downgrade can make differ from the planned one) and its output row
/// count — the caller decides whether those are worth recording.
fn execute(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    plan: &BoundPlan<'_>,
    mut rows: Vec<Row>,
    mut pending: Vec<CompiledFilter<'_>>,
    early_limit: Option<usize>,
) -> (Vec<Row>, Vec<(&'static str, u64)>) {
    let store = cx.store;
    // Variables the input rows bind count as bound for filter readiness.
    let mut bound: Vec<bool> = (0..cx.var_idx.len())
        .map(|i| rows.iter().any(|r| r[i].is_some()))
        .collect();
    let mut ran = Vec::with_capacity(plan.steps.len());
    for (step_no, step) in plan.steps.iter().enumerate() {
        // The early-limit rule: only the last step's output is the row
        // stream, and only once no filter is left to thin it. A greedy
        // plan's probe then stops at the limit; a cost-based step runs
        // in full (in parallel, and its row count stays the cardinality
        // the plan's estimate is held to) and is cut afterwards.
        let last = step_no + 1 == plan.steps.len();
        let limit =
            |pending: &[CompiledFilter<'_>]| early_limit.filter(|_| last && pending.is_empty());
        let stop_at = limit(&pending).filter(|_| plan.stops_early);
        let cp = &plan.compiled[step.pattern];
        // Plans are cached by shape, so the *actual* input cardinality
        // can differ wildly from the one the plan was built for. A
        // batched join is only executed when the live row count can pay
        // for materializing the right side; otherwise the step
        // downgrades to per-row index probes (all a greedy plan ever
        // does, so the downgrade can never be a regression).
        let batch_ok = || {
            rows.len() >= MIN_BATCH_INPUT
                && store.estimate_pattern(cp.base()) <= rows.len().saturating_mul(MAX_RIGHT_BLOWUP)
        };
        let probe_span = cx.trace.span(Stage::BgpProbe);
        let (next, op_used): (Vec<Row>, &'static str) = match &step.op {
            // One input row, one materialized (parallel-decoded) run.
            PlanOp::Scan => (
                run_stage(cx, deg, None, &rows, |row| {
                    let matches = store.match_pattern(cp.fill(row));
                    matches.iter().filter_map(|t| cp.bind(row, t)).collect()
                }),
                "scan",
            ),
            PlanOp::MergeJoin { var, right_pos } if batch_ok() => {
                let join_var = plan.local_to_global[*var as usize];
                (
                    merge_join(cx, deg, cp, &rows, join_var, *right_pos),
                    "merge_join",
                )
            }
            PlanOp::HashJoin { keys } if batch_ok() => {
                let kg: Vec<usize> = keys
                    .iter()
                    .map(|&k| plan.local_to_global[k as usize])
                    .collect();
                (hash_join(cx, deg, cp, &rows, &kg), "hash_join")
            }
            PlanOp::Wco(wp) => {
                let (next, stats) =
                    crate::wco::wco_join(cx, deg, plan.compiled, wp, plan.local_to_global);
                let m = plan_metrics();
                m.wco_seeks.add(stats.seeks);
                m.wco_advances.add(stats.advances);
                (next, "wco")
            }
            PlanOp::NestedLoop | PlanOp::MergeJoin { .. } | PlanOp::HashJoin { .. } => (
                run_stage(cx, deg, stop_at, &rows, |row| probe_row(store, cp, row)),
                "nested_loop",
            ),
        };
        rows = next;
        drop(probe_span);
        cx.trace.add_items(Stage::BgpProbe, rows.len() as u64);
        sparql_metrics().rows_probed.add(rows.len() as u64);
        ran.push((op_used, rows.len() as u64));

        for pi in step.patterns(plan.compiled.len()) {
            for v in plan.compiled[pi].vars() {
                bound[v] = true;
            }
        }
        // Apply filters whose variables are now bound (parallel,
        // order-preserving keep flags).
        pending.retain(|f| {
            let ready = f.vars.iter().all(|&v| bound[v]);
            if ready {
                let _filter_span = cx.trace.span(Stage::Filter);
                retain_parallel(&mut rows, |row| f.matches(store, row, cx.var_idx));
            }
            !ready
        });
        if let Some(lim) = limit(&pending) {
            rows.truncate(lim);
        }
        if rows.is_empty() {
            break;
        }
    }
    (rows, ran)
}

/// The one budget/degrade driver under every join stage: maps an
/// operator's per-item closure over its input and concatenates the
/// extension lists in item order, so a stage's output is identical at
/// every thread count.
///
/// With `stop_at` (the early-limit rule's verdict, which only a greedy
/// plan's probe is handed) the items run serially and the stage returns
/// exactly the first `stop_at` rows: the parallel path followed by
/// `truncate` would return the same rows, just with wasted work.
/// Otherwise the stage is parallel — unchecked when the budget is
/// unlimited or already tripped (grace mode: the sampled rows finish
/// without more checks, so a tripped deadline cannot starve the answer
/// to nothing), and through [`wodex_exec::par_map_budgeted`] when not:
/// a trip keeps the completed prefix, folds its fraction into the
/// coverage estimate and samples it down for the stages still to come.
pub(crate) fn run_stage<T: Sync>(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    stop_at: Option<usize>,
    items: &[T],
    f: impl Fn(&T) -> Vec<Row> + Sync,
) -> Vec<Row> {
    let budgeted = !cx.budget.is_unlimited() && !deg.active();
    if let Some(lim) = stop_at {
        let mut rows = Vec::new();
        for (i, item) in items.iter().enumerate() {
            if rows.len() >= lim {
                break;
            }
            if budgeted {
                // The last stage of its group: nothing joins after it,
                // so there is nothing to sample the prefix down for.
                if let Some(reason) = cx.budget.exceeded() {
                    deg.trip(reason, i as f64 / items.len() as f64);
                    break;
                }
            }
            rows.extend(f(item));
        }
        rows.truncate(lim);
        return rows;
    }
    if !budgeted {
        return wodex_exec::par_map(items, f)
            .into_iter()
            .flatten()
            .collect();
    }
    let part = wodex_exec::par_map_budgeted(items, cx.budget, f);
    let coverage = part.coverage(items.len());
    let mut rows: Vec<Row> = part.value.into_iter().flatten().collect();
    if let Some(reason) = part.interrupted {
        deg.trip(reason, coverage);
        deg.sample(&mut rows);
    }
    rows
}

/// The per-row index probe: `row` extended with every store match of
/// the pattern. Matches stream chunk by chunk (from cached segment
/// blocks when the store has a segment base) instead of materializing
/// the match vector per row; chunk concatenation is exactly
/// `match_pattern`.
fn probe_row(store: &TripleStore, cp: &CompiledPattern, row: &Row) -> Vec<Row> {
    let mut extended = Vec::new();
    store.match_pattern_chunks(cp.fill(row), &mut |chunk| {
        extended.extend(chunk.iter().filter_map(|t| cp.bind(row, t)));
        true
    });
    extended
}

/// Merge join: materialize the right side once, pre-sorted by the join
/// key straight off an index run (the planner guaranteed the natural
/// sort position and an empty tail), then for each row gallop into the
/// sorted run by binary search. Left row order is preserved, so output
/// order matches the per-row probe's.
fn merge_join(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    cp: &CompiledPattern,
    rows: &[Row],
    join_var: usize,
    right_pos: usize,
) -> Vec<Row> {
    let right = cx.store.match_pattern_sorted_by(cp.base(), right_pos);
    run_stage(cx, deg, None, rows, |row| {
        let Some(key) = row[join_var] else {
            // Join variable unbound (cannot happen for plans built from
            // the shape, but stay correct): the run does not constrain
            // it — fall back to a plain probe.
            return probe_row(cx.store, cp, row);
        };
        let start = right.partition_point(|t| t[right_pos] < key.0);
        right[start..]
            .iter()
            .take_while(|t| t[right_pos] == key.0)
            .filter_map(|t| cp.bind(row, t))
            .collect()
    })
}

/// Hash join: materialize the right side once, build a hash table on
/// the smaller side, probe the larger in parallel batches.
fn hash_join(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    cp: &CompiledPattern,
    rows: &[Row],
    keys: &[usize],
) -> Vec<Row> {
    let right = cx.store.match_pattern(cp.base());
    let key_positions: Vec<usize> = keys
        .iter()
        .map(|&v| cp.position_of(v).expect("join key occurs in pattern"))
        .collect();
    let triple_key =
        |t: &EncodedTriple| -> Vec<u32> { key_positions.iter().map(|&p| t[p]).collect() };
    let row_key =
        |row: &Row| -> Option<Vec<u32>> { keys.iter().map(|&v| row[v].map(|id| id.0)).collect() };

    let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    if rows.len() <= right.len() {
        // Build on the binding rows, probe the triples. Output is
        // grouped by right triple in scan order — deterministic at
        // every thread count (the map is only ever looked up).
        for (i, row) in rows.iter().enumerate() {
            if let Some(k) = row_key(row) {
                table.entry(k).or_default().push(i);
            }
        }
        run_stage(cx, deg, None, &right, |t| {
            let matches = table.get(&triple_key(t)).into_iter().flatten();
            matches.filter_map(|&i| cp.bind(&rows[i], t)).collect()
        })
    } else {
        // Build on the triples, probe the rows (preserves row order).
        for (i, t) in right.iter().enumerate() {
            table.entry(triple_key(t)).or_default().push(i);
        }
        run_stage(cx, deg, None, rows, |row| {
            let matches = row_key(row).and_then(|k| table.get(&k));
            let matches = matches.into_iter().flatten();
            matches.filter_map(|&i| cp.bind(row, &right[i])).collect()
        })
    }
}

fn fmt_tv(tv: &TermOrVar) -> String {
    match tv {
        TermOrVar::Var(v) => format!("?{v}"),
        TermOrVar::Term(t) => t.to_string(),
    }
}

fn fmt_pattern(p: &TriplePattern) -> String {
    format!("{} {} {}", fmt_tv(&p.s), fmt_tv(&p.p), fmt_tv(&p.o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{foaf, rdf};
    use wodex_rdf::{Graph, Triple};

    fn store() -> TripleStore {
        let mut g = Graph::new();
        for i in 0..40u32 {
            let s = format!("http://e.org/n{i}");
            g.insert(Triple::iri(&s, rdf::TYPE, Term::iri(foaf::PERSON)));
            g.insert(Triple::iri(
                &s,
                "http://e.org/age",
                Term::integer((i % 7) as i64),
            ));
            g.insert(Triple::iri(
                &s,
                foaf::KNOWS,
                Term::iri(format!("http://e.org/n{}", (i + 1) % 40)),
            ));
        }
        TripleStore::from_graph(&g)
    }

    fn pat(s: &str, p: &str, o: &str) -> TriplePattern {
        let tv = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermOrVar::Var(v.to_string())
            } else {
                TermOrVar::Term(Term::iri(x))
            }
        };
        TriplePattern {
            s: tv(s),
            p: tv(p),
            o: tv(o),
        }
    }

    fn var_map(names: &[&'static str]) -> HashMap<&'static str, usize> {
        names.iter().enumerate().map(|(i, n)| (*n, i)).collect()
    }

    #[test]
    fn shape_abstracts_constants_and_renumbers_vars() {
        let a = [
            pat("?x", foaf::KNOWS, "?y"),
            pat("?y", rdf::TYPE, foaf::PERSON),
        ];
        let b = [
            pat("?p", foaf::KNOWS, "?q"),
            pat("?q", rdf::TYPE, "http://other/class"),
        ];
        let (sa, na) = combo_shape(&a);
        let (sb, nb) = combo_shape(&b);
        assert_eq!(sa, sb, "same structure, different names/constants");
        assert_eq!(na, vec!["x", "y"]);
        assert_eq!(nb, vec!["p", "q"]);
    }

    #[test]
    fn planner_starts_from_the_most_selective_pattern() {
        let st = store();
        let vm = var_map(&["x", "y"]);
        // age=?y has 40 matches but knows joins; type scan has 40 too.
        // A constant-subject pattern has 3 matches — must go first.
        let combo = [
            pat("?x", foaf::KNOWS, "?y"),
            pat("http://e.org/n3", foaf::KNOWS, "?x"),
        ];
        let compiled: Vec<CompiledPattern> = combo
            .iter()
            .map(|p| CompiledPattern::compile(&st, p, &vm).unwrap())
            .collect();
        let (shape, _) = combo_shape(&combo);
        let plan = build_plan(&st, &shape, &compiled, Engine::Wco);
        assert_eq!(plan.steps[0].pattern, 1, "selective pattern scans first");
        assert_eq!(plan.steps[0].op, PlanOp::Scan);
        assert_ne!(plan.steps[1].op, PlanOp::NestedLoop, "shared var joins");
    }

    #[test]
    fn merge_join_requires_natural_position_and_empty_tail() {
        let mut st = store();
        // (?x <p> ?y): only p bound, so the POS run is naturally sorted
        // by o (position 2) — where Var(1) sits: merge-joinable on ?y
        // but not on ?x.
        let shape = [ShapeSlot::Var(0), ShapeSlot::Const, ShapeSlot::Var(1)];
        assert_eq!(TripleStore::natural_position(false, true, false), Some(2));
        assert_eq!(merge_position(&st, &shape, 1), Some(2));
        assert_eq!(
            merge_position(&st, &shape, 0),
            None,
            "?x is not on the sort position"
        );
        // An unsorted tail disables the zero-sort guarantee.
        st.insert(&Triple::iri(
            "http://e.org/extra",
            "http://e.org/p",
            Term::iri("http://e.org/n0"),
        ));
        assert!(st.tail_len() > 0, "insert lands in the tail");
        assert_eq!(merge_position(&st, &shape, 1), None);
    }

    #[test]
    fn plan_cache_hits_on_same_shape_and_misses_on_mutation() {
        let _guard = plan_cache_test_lock();
        let st = store();
        let vm = var_map(&["x", "y"]);
        let combo = [pat("?x", foaf::KNOWS, "?y"), pat("?y", foaf::KNOWS, "?x")];
        let compiled: Vec<CompiledPattern> = combo
            .iter()
            .map(|p| CompiledPattern::compile(&st, p, &vm).unwrap())
            .collect();
        let (shape, _) = combo_shape(&combo);
        let before = plan_cache_stats();
        let p1 = plan_for(&st, shape.clone(), &compiled, Engine::Wco);
        let p2 = plan_for(&st, shape.clone(), &compiled, Engine::Wco);
        let after = plan_cache_stats();
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "second lookup returns the cached plan"
        );
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
        // A different store revision must not reuse the plan.
        let st2 = store();
        assert_ne!(st.revision(), st2.revision());
        let p3 = plan_for(&st2, shape, &compiled, Engine::Wco);
        let last = plan_cache_stats();
        assert!(!Arc::ptr_eq(&p1, &p3), "the plan is not reused");
        assert_eq!(last.misses, after.misses + 1, "new revision is a new key");
    }

    #[test]
    fn compiled_filter_id_eq_matches_general_semantics() {
        let st = store();
        let vm = var_map(&["x"]);
        let target = Term::iri("http://e.org/n5");
        let expr = Expr::Compare(
            Box::new(Expr::Var("x".into())),
            CompareOp::Eq,
            Box::new(Expr::Const(target.clone())),
        );
        let cf = CompiledFilter::compile(&st, &expr, &vm);
        assert!(matches!(cf.conjuncts[0], FilterKind::IdEq { .. }));
        let id5 = st.id_of(&target).unwrap();
        let other = st.id_of(&Term::iri("http://e.org/n6")).unwrap();
        assert!(cf.matches(&st, &vec![Some(id5)], &vm));
        assert!(!cf.matches(&st, &vec![Some(other)], &vm));
        assert!(
            !cf.matches(&st, &vec![None], &vm),
            "unbound is an error → false"
        );
        // != with an unknown IRI: every bound row passes, unbound fails.
        let expr_ne = Expr::Compare(
            Box::new(Expr::Var("x".into())),
            CompareOp::Ne,
            Box::new(Expr::Const(Term::iri("http://nowhere/x"))),
        );
        let cf_ne = CompiledFilter::compile(&st, &expr_ne, &vm);
        assert!(cf_ne.matches(&st, &vec![Some(id5)], &vm));
        assert!(!cf_ne.matches(&st, &vec![None], &vm));
    }

    #[test]
    fn compiled_filter_value_cmp_matches_general_semantics() {
        let st = store();
        let vm = var_map(&["a"]);
        let ge3 = Expr::Compare(
            Box::new(Expr::Var("a".into())),
            CompareOp::Ge,
            Box::new(Expr::Const(Term::integer(3))),
        );
        let ge3 = CompiledFilter::compile(&st, &ge3, &vm);
        assert!(matches!(ge3.conjuncts[0], FilterKind::ValueCmp { .. }));
        let id_of_age = |n: i64| st.id_of(&Term::integer(n)).unwrap();
        assert!(ge3.matches(&st, &vec![Some(id_of_age(4))], &vm));
        assert!(!ge3.matches(&st, &vec![Some(id_of_age(2))], &vm));
        // Flipped: 3 <= ?a is the same predicate.
        let flipped = Expr::Compare(
            Box::new(Expr::Const(Term::integer(3))),
            CompareOp::Le,
            Box::new(Expr::Var("a".into())),
        );
        let flipped = CompiledFilter::compile(&st, &flipped, &vm);
        assert!(flipped.matches(&st, &vec![Some(id_of_age(4))], &vm));
        assert!(!flipped.matches(&st, &vec![Some(id_of_age(2))], &vm));
        // Ordering against a non-literal term is an error → false; `!=`
        // against a non-literal is true (never equal).
        let iri = st.id_of(&Term::iri("http://e.org/n1")).unwrap();
        assert!(!ge3.matches(&st, &vec![Some(iri)], &vm));
        let ne = Expr::Compare(
            Box::new(Expr::Var("a".into())),
            CompareOp::Ne,
            Box::new(Expr::Const(Term::integer(3))),
        );
        let ne = CompiledFilter::compile(&st, &ne, &vm);
        assert!(ne.matches(&st, &vec![Some(iri)], &vm));
    }

    #[test]
    fn conjunction_splits_and_each_conjunct_specializes() {
        let st = store();
        let vm = var_map(&["a", "x"]);
        let e = Expr::And(
            Box::new(Expr::Compare(
                Box::new(Expr::Var("a".into())),
                CompareOp::Gt,
                Box::new(Expr::Const(Term::integer(1))),
            )),
            Box::new(Expr::Compare(
                Box::new(Expr::Var("x".into())),
                CompareOp::Eq,
                Box::new(Expr::Const(Term::iri("http://e.org/n5"))),
            )),
        );
        let cf = CompiledFilter::compile(&st, &e, &vm);
        assert_eq!(cf.conjuncts.len(), 2);
        assert!(matches!(cf.conjuncts[0], FilterKind::ValueCmp { .. }));
        assert!(matches!(cf.conjuncts[1], FilterKind::IdEq { .. }));
        assert_eq!(
            cf.vars,
            vec![0, 1],
            "readiness gates on the whole expression"
        );
    }

    const V0: ShapeSlot = ShapeSlot::Var(0);
    const V1: ShapeSlot = ShapeSlot::Var(1);
    const V2: ShapeSlot = ShapeSlot::Var(2);
    const V3: ShapeSlot = ShapeSlot::Var(3);
    const C: ShapeSlot = ShapeSlot::Const;

    #[test]
    fn gyo_classifies_cyclic_and_acyclic_shapes() {
        // Triangle and 4-cycle reduce to a non-empty core.
        assert!(shape_is_cyclic(&[[V0, C, V1], [V1, C, V2], [V2, C, V0]]));
        assert!(shape_is_cyclic(&[
            [V0, C, V1],
            [V1, C, V2],
            [V2, C, V3],
            [V3, C, V0]
        ]));
        // A pendant edge does not break the triangle's cycle.
        assert!(shape_is_cyclic(&[
            [V0, C, V1],
            [V1, C, V2],
            [V2, C, V0],
            [V2, C, V3]
        ]));
        // Chains, stars and two-pattern groups are always acyclic.
        assert!(!shape_is_cyclic(&[[V0, C, V1], [V1, C, V2]]));
        assert!(!shape_is_cyclic(&[[V0, C, V1], [V0, C, V2], [V0, C, V3]]));
        assert!(!shape_is_cyclic(&[[V0, C, V1], [V1, C, V0]]));
        assert!(!shape_is_cyclic(&[[V0, C, V1], [V0, C, V1]]));
    }

    #[test]
    fn build_wco_rejects_acyclic_and_repeated_variable_groups() {
        let steps: Vec<PlanStep> = Vec::new();
        assert!(
            build_wco(&[[V0, C, V1], [V1, C, V2]], &[10.0, 10.0], &steps).is_none(),
            "acyclic groups stay pairwise"
        );
        // `?a knows ?a`-style self-join inside one pattern is ineligible.
        assert!(build_wco(
            &[[V0, C, V0], [V0, C, V1], [V1, C, V0]],
            &[10.0, 10.0, 10.0],
            &steps
        )
        .is_none());
    }

    #[test]
    fn wco_plan_orders_every_variable_and_covers_every_pattern() {
        let shape = [[V0, C, V1], [V1, C, V2], [V2, C, V0]];
        let wp = build_wco(&shape, &[5.0, 50.0, 50.0], &[]).expect("triangle is cyclic");
        let mut elim = wp.elim.clone();
        elim.sort_unstable();
        assert_eq!(elim, vec![0, 1, 2], "every variable gets one level");
        // First eliminated: a variable of the cheapest pattern (base 5).
        assert!(wp.elim[0] == 0 || wp.elim[0] == 1);
        for (pi, levels) in wp.levels.iter().enumerate() {
            assert_eq!(levels.len(), 2, "pattern {pi} has two variables");
            assert!(
                levels.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted by level"
            );
        }
    }

    /// A ring with chords: edges `i→i+1` and `i+2→i` (mod n) give `n`
    /// directed triangles, each matched by 3 rotations.
    fn triangle_store(n: u32) -> TripleStore {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert(Triple::iri(
                &format!("http://e.org/n{i}"),
                foaf::KNOWS,
                Term::iri(format!("http://e.org/n{}", (i + 1) % n)),
            ));
            g.insert(Triple::iri(
                &format!("http://e.org/n{}", (i + 2) % n),
                foaf::KNOWS,
                Term::iri(format!("http://e.org/n{i}")),
            ));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn a_limit_stops_a_probe_early_and_cuts_a_batched_join_afterwards() {
        // 200 `knows` arcs, two out of every node: the two-hop has 400
        // rows, six of them after the first three one-hop rows.
        let st = triangle_store(100);
        let vm = var_map(&["a", "b", "c"]);
        let combo = [pat("?a", foaf::KNOWS, "?b"), pat("?b", foaf::KNOWS, "?c")];
        let compiled = compile_group(&st, &combo, &vm).unwrap();
        let (shape, names) = combo_shape(&combo);
        let local_to_global: Vec<usize> = names.iter().map(|n| vm[n.as_str()]).collect();
        let cx = ExecCx {
            store: &st,
            var_idx: &vm,
            budget: &Budget::unlimited(),
            trace: &QueryTrace::disabled(),
        };
        let run = |steps: &[PlanStep], stops_early: bool| {
            let plan = BoundPlan {
                steps,
                compiled: &compiled,
                local_to_global: &local_to_global,
                stops_early,
            };
            let initial = vec![vec![None; vm.len()]];
            let (rows, ran) = execute(
                &cx,
                &mut DegradeState::new(),
                &plan,
                initial,
                Vec::new(),
                Some(5),
            );
            assert_eq!(rows.len(), 5);
            ran
        };
        // A greedy plan's last probe stops exactly at the limit (the left
        // row that fills it yields one row too many, which is dropped).
        let greedy = greedy_plan(&compiled, &base_counts(&st, &compiled), vec![false; 3]);
        assert_eq!(
            run(&greedy, true),
            [("nested_loop", 200), ("nested_loop", 5)]
        );
        // So does a single-pattern group's, whose one input row matches
        // all 200 arcs: what it records as probed is the limit.
        assert_eq!(run(&greedy[..1], true), [("nested_loop", 5)]);
        // A cost-based plan's last step runs in full, so the row count
        // held against its estimate is the step's cardinality, not the
        // limit — a batched join and a per-row probe alike.
        let costed = build_plan(&st, &shape, &compiled, Engine::Pairwise);
        assert_eq!(
            run(&costed.steps, false),
            [("scan", 200), ("hash_join", 400)]
        );
        assert_eq!(
            run(&greedy, false),
            [("nested_loop", 200), ("nested_loop", 400)]
        );
    }

    #[test]
    fn multiway_join_matches_pairwise_and_greedy_on_a_triangle() {
        use crate::eval::evaluate_with;
        use crate::parser::parse_query;
        use wodex_obs::QueryTrace;

        let _guard = plan_cache_test_lock();
        let st = triangle_store(30);
        let q = parse_query(
            "SELECT ?a ?b ?c WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b . \
             ?b <http://xmlns.com/foaf/0.1/knows> ?c . \
             ?c <http://xmlns.com/foaf/0.1/knows> ?a }",
        )
        .unwrap();
        let run = |engine: Engine| -> (Vec<String>, Vec<&'static str>) {
            let trace = QueryTrace::new();
            let out = evaluate_with(&st, &q, &Budget::unlimited(), &trace, engine)
                .expect("triangle evaluates");
            let mut rows: Vec<String> = match out.result {
                crate::results::QueryResult::Solutions(t) => {
                    t.rows.iter().map(|r| format!("{r:?}")).collect()
                }
                other => panic!("unexpected result {other:?}"),
            };
            rows.sort();
            let ops = trace.plan_steps().iter().map(|s| s.op).collect();
            (rows, ops)
        };
        let (wco_rows, wco_ops) = run(Engine::Wco);
        let (pair_rows, pair_ops) = run(Engine::Pairwise);
        let (greedy_rows, greedy_ops) = run(Engine::Greedy);
        assert_eq!(wco_rows.len(), 90, "30 triangles × 3 rotations");
        assert_eq!(wco_rows, pair_rows);
        assert_eq!(wco_rows, greedy_rows);
        assert!(
            wco_ops.contains(&"wco"),
            "multiway engine engaged: {wco_ops:?}"
        );
        assert!(
            !pair_ops.contains(&"wco"),
            "the pairwise engine keys a pairwise plan: {pair_ops:?}"
        );
        assert!(greedy_ops.is_empty(), "greedy plans go unrecorded");
    }
}
