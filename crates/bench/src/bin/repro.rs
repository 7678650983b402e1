//! `repro` — regenerates every artifact of the reproduction:
//!
//! * `repro table1` / `repro table2` — the survey's tables from the corpus.
//! * `repro claims`  — the §4 gap analysis (C1–C5), derived by query.
//! * `repro map`     — the feature→module capability cross-reference.
//! * `repro e1` ... `repro e15` — one experiment.
//! * `repro all` (default) — everything, in `EXPERIMENTS.md` order.

use wodex_bench::experiments;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    type Exp = (&'static str, fn() -> String);
    let experiments_by_id: Vec<Exp> = vec![
        ("e1", experiments::e1_sampling),
        ("e2", experiments::e2_aggregation),
        ("e3", experiments::e3_progressive),
        ("e4", experiments::e4_cracking),
        ("e5", experiments::e5_disk),
        ("e6", experiments::e6_prefetch),
        ("e7", experiments::e7_hetree),
        ("e8", experiments::e8_layout),
        ("e9", experiments::e9_bundling),
        ("e10", experiments::e10_window),
        ("e11", experiments::e11_gsample),
        ("e12", experiments::e12_recommend),
        ("e13", experiments::e13_explore),
        ("e14", experiments::e14_sparql),
        ("e15", experiments::e15_streaming),
    ];
    match arg.as_str() {
        "table1" => print!("{}", wodex_registry::render_table1()),
        "table2" => print!("{}", wodex_registry::render_table2()),
        "claims" => print!("{}", wodex_registry::analysis::report()),
        "map" => print!("{}", wodex_registry::capability::render()),
        "list" => {
            for s in wodex_registry::all_systems() {
                println!("{}", wodex_registry::table::summary_line(&s));
            }
        }
        "all" => {
            println!("{}", wodex_registry::render_table1());
            println!("{}", wodex_registry::render_table2());
            println!("{}", wodex_registry::analysis::report());
            println!("{}", wodex_registry::capability::render());
            print!("{}", experiments::run_all());
        }
        id => {
            if let Some((_, f)) = experiments_by_id.iter().find(|(k, _)| *k == id) {
                print!("{}", f());
            } else {
                eprintln!("unknown target {id:?}; use table1|table2|claims|map|list|all|e1..e15");
                std::process::exit(2);
            }
        }
    }
}
