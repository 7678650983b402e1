//! Worst-case-optimal multiway join: leapfrog triejoin over sorted
//! pattern runs.
//!
//! Pairwise join plans are provably suboptimal on cyclic pattern groups
//! — for the triangle `?a p ?b . ?b p ?c . ?c p ?a` every pairwise
//! order first materializes a two-pattern intermediate of size Θ(Σ
//! deg²), while the output is bounded by the AGM bound O(|E|^{3/2}).
//! The leapfrog triejoin instead eliminates one *variable* at a time:
//! at each level it intersects, by mutual galloping seeks, the sorted
//! value lists of every pattern containing that variable, and recurses
//! into each value of the intersection. Its running time is within a
//! log factor of the AGM bound (Veldhuizen 2014), which is what
//! "worst-case optimal" means.
//!
//! Mechanics here:
//!
//! * Each pattern's matches are materialized **once** via
//!   [`TripleStore::match_pattern_sorted_lex`], sorted by its variables
//!   in elimination order (a zero-sort index scan when that order
//!   coincides with the pattern's natural index order), and walked by
//!   [`SortedCursor`]s — galloping `seek_geq`, `open`/`up` trie
//!   descent.
//! * The **level-0 intersection** is computed serially (it is one
//!   leapfrog pass over the top-level value lists), then each candidate
//!   value is solved independently in parallel `wodex-exec` chunks:
//!   workers build their own cheap cursor set over the shared runs, so
//!   the output is a deterministic function of the candidate order —
//!   thread-count invariant, like every other operator.
//! * **Budgets** meet the candidates in the shared stage driver
//!   ([`crate::plan::run_stage`]), like every pairwise operator's items;
//!   on top of that an already-exhausted budget trips before any
//!   materialization, the same observable state as the pairwise
//!   operators' "interrupted before the first chunk".

use crate::eval::{DegradeState, Row};
use crate::plan::{run_stage, CompiledPattern, ExecCx, WcoPlan};
use std::sync::atomic::{AtomicU64, Ordering};
use wodex_rdf::TermId;
use wodex_store::{EncodedTriple, SortedCursor};

/// Cursor work counters aggregated across the whole join, surfaced as
/// `wodex_plan_wco_seeks_total` / `wodex_plan_wco_advances_total`.
pub(crate) struct WcoStats {
    pub(crate) seeks: u64,
    pub(crate) advances: u64,
}

/// Executes the multiway join for one pattern group. Returns the full
/// binding rows (every group variable bound, pruned variables skipped)
/// plus cursor statistics. Contract identical to the pairwise
/// operators: rows are genuine solutions, order is thread-invariant,
/// and budget trips degrade instead of erroring.
pub(crate) fn wco_join(
    cx: &ExecCx<'_>,
    deg: &mut DegradeState,
    compiled: &[CompiledPattern],
    wp: &WcoPlan,
    local_to_global: &[usize],
) -> (Vec<Row>, WcoStats) {
    let store = cx.store;
    let nvars = cx.var_idx.len();
    let mut stats = WcoStats {
        seeks: 0,
        advances: 0,
    };
    if !cx.budget.is_unlimited() && !deg.active() {
        if let Some(reason) = cx.budget.exceeded() {
            deg.trip(reason, 0.0);
            return (Vec::new(), stats);
        }
    }

    let nlevels = wp.elim.len();
    // Materialize every pattern's run in its trie order, once.
    let mut runs: Vec<Vec<EncodedTriple>> = Vec::with_capacity(compiled.len());
    let mut orders: Vec<Vec<usize>> = Vec::with_capacity(compiled.len());
    for (cp, levels) in compiled.iter().zip(&wp.levels) {
        let positions: Vec<usize> = levels.iter().map(|&(_, pos)| pos).collect();
        if positions.is_empty() {
            // Fully constant pattern: a pure existence test.
            if store.count_pattern(cp.base()) == 0 {
                return (Vec::new(), stats);
            }
            runs.push(Vec::new());
        } else {
            let run = store.match_pattern_sorted_lex(cp.base(), &positions);
            if run.is_empty() {
                return (Vec::new(), stats);
            }
            runs.push(run);
        }
        orders.push(positions);
    }
    // participation[lvl] = (pattern, trie depth) of every pattern
    // containing elimination variable `lvl`; the depth is how many of
    // the pattern's own variables precede this level.
    let mut participation: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nlevels];
    for (pi, levels) in wp.levels.iter().enumerate() {
        for (depth, &(lvl, _)) in levels.iter().enumerate() {
            participation[lvl].push((pi, depth));
        }
    }
    // Level → global row slot (usize::MAX = pruned, never recorded).
    let slots: Vec<usize> = wp
        .elim
        .iter()
        .map(|&v| local_to_global[v as usize])
        .collect();

    // Level-0 candidates: one serial leapfrog pass over the top level.
    let mut cands: Vec<u32> = Vec::new();
    {
        let mut cursors: Vec<SortedCursor> = runs
            .iter()
            .zip(&orders)
            .map(|(r, o)| SortedCursor::new(r, o))
            .collect();
        let parts = &participation[0];
        let mut x = Some(0u32);
        for &(pi, _) in parts {
            match cursors[pi].current() {
                None => x = None,
                Some(v) => x = x.map(|x| x.max(v)),
            }
        }
        'leapfrog: while let Some(mut target) = x {
            loop {
                let mut raised = false;
                for &(pi, _) in parts {
                    match cursors[pi].seek_geq(target) {
                        None => break 'leapfrog,
                        Some(v) if v > target => {
                            target = v;
                            raised = true;
                        }
                        Some(_) => {}
                    }
                }
                if !raised {
                    break;
                }
            }
            cands.push(target);
            x = target.checked_add(1);
        }
        for c in &cursors {
            let (s, a) = c.stats();
            stats.seeks += s;
            stats.advances += a;
        }
    }

    let seeks = AtomicU64::new(0);
    let advances = AtomicU64::new(0);
    let solve = |v0: &u32| -> Vec<Row> {
        let mut cursors: Vec<SortedCursor> = runs
            .iter()
            .zip(&orders)
            .map(|(r, o)| SortedCursor::new(r, o))
            .collect();
        for &(pi, _) in &participation[0] {
            let hit = cursors[pi].seek_geq(*v0);
            debug_assert_eq!(hit, Some(*v0), "candidate came from this intersection");
            cursors[pi].open();
        }
        let mut binding = vec![0u32; nlevels];
        binding[0] = *v0;
        let mut out = Vec::new();
        enumerate(
            &mut cursors,
            &participation,
            1,
            &mut binding,
            &slots,
            nvars,
            &mut out,
        );
        let (mut s, mut a) = (0u64, 0u64);
        for c in &cursors {
            let (cs, ca) = c.stats();
            s += cs;
            a += ca;
        }
        seeks.fetch_add(s, Ordering::Relaxed);
        advances.fetch_add(a, Ordering::Relaxed);
        out
    };

    let rows = run_stage(cx, deg, None, &cands, solve);
    stats.seeks += seeks.into_inner();
    stats.advances += advances.into_inner();
    (rows, stats)
}

/// Recursive per-level leapfrog: intersect the participating cursors'
/// current value lists, descend into each common value. Cursors
/// participating here but not at the parent level carry a stale
/// enumeration position from the previous visit — `reset` rewinds them
/// to the start of their (unchanged) range, exactly the trie-iterator
/// `open` semantics of the original algorithm.
fn enumerate(
    cursors: &mut [SortedCursor],
    participation: &[Vec<(usize, usize)>],
    level: usize,
    binding: &mut [u32],
    slots: &[usize],
    nvars: usize,
    out: &mut Vec<Row>,
) {
    if level == binding.len() {
        let mut row: Row = vec![None; nvars];
        for (&g, &v) in slots.iter().zip(binding.iter()) {
            if g != usize::MAX {
                row[g] = Some(TermId(v));
            }
        }
        out.push(row);
        return;
    }
    let parts = &participation[level];
    let mut x = 0u32;
    for &(pi, _) in parts {
        cursors[pi].reset();
        match cursors[pi].current() {
            None => return,
            Some(v) => x = x.max(v),
        }
    }
    loop {
        let mut raised = false;
        for &(pi, _) in parts {
            match cursors[pi].seek_geq(x) {
                None => return,
                Some(v) if v > x => {
                    x = v;
                    raised = true;
                }
                Some(_) => {}
            }
        }
        if raised {
            continue;
        }
        binding[level] = x;
        for &(pi, _) in parts {
            cursors[pi].open();
        }
        enumerate(
            cursors,
            participation,
            level + 1,
            binding,
            slots,
            nvars,
            out,
        );
        for &(pi, _) in parts {
            cursors[pi].up();
        }
        match x.checked_add(1) {
            Some(next) => x = next,
            None => return,
        }
    }
}
