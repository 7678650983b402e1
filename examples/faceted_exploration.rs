//! Faceted exploration of a DBpedia-like dataset — the §3.1 browser
//! workflow: overview first, zoom and filter, then details-on-demand,
//! with interest-area guidance and an explained anomaly at the end.
//!
//! ```sh
//! cargo run --example faceted_exploration
//! ```

use wodex::explore::explain::{explain_outlier, Record};
use wodex::explore::interest;
use wodex::rdf::vocab::rdf;
use wodex::rdf::{Term, Value};
use wodex::synth::dbpedia::{self, DbpediaConfig};

fn main() {
    // A synthetic LOD dataset: 2 000 typed entities with labels, numeric,
    // temporal and categorical properties plus inter-entity links.
    let graph = dbpedia::generate(&DbpediaConfig {
        entities: 2_000,
        seed: 2016,
        ..Default::default()
    });
    println!("dataset: {} triples", graph.len());
    let mut ex = wodex::core::Explorer::from_graph(graph);

    // -- Overview first --------------------------------------------------
    println!("\n== overview: classes by size ==");
    for (class, n) in ex.session().overview() {
        println!("  {:<50} {n}", wodex::rdf::vocab::abbreviate(&class));
    }

    // -- Zoom and filter --------------------------------------------------
    let ns = "http://dbp.example.org/";
    ex.session()
        .filter(rdf::TYPE, &format!("{ns}ontology/City"));
    println!(
        "\nafter filtering to cities: {} resources",
        ex.session().matching().len()
    );
    ex.session()
        .zoom(&format!("{ns}ontology/population"), 0.0, 50_000.0);
    println!(
        "after zooming to population < 50k: {} resources",
        ex.session().matching().len()
    );

    // Facet counts always reflect the *other* active filters.
    println!("\n== subject facet under the current filters (top 5) ==");
    let counts = ex
        .session()
        .facets()
        .counts("http://purl.org/dc/terms/subject");
    for (value, n) in counts.iter().take(5) {
        println!("  {:<50} {n}", value);
    }

    // -- Keyword search ---------------------------------------------------
    println!("\n== keyword search: 'city 42' ==");
    for hit in ex.search("city 42", 3) {
        println!("  {:.2}  {}", hit.score, hit.subject);
    }

    // -- Details-on-demand -------------------------------------------------
    let some_city = ex
        .session()
        .matching()
        .into_iter()
        .next()
        .expect("non-empty selection");
    println!(
        "\n== details of {some_city} ==\n{}",
        ex.details(&some_city).render()
    );

    // -- Guidance: interesting regions -------------------------------------
    let graph = ex.graph();
    let pops: Vec<f64> = graph
        .triples_for_predicate(&format!("{ns}ontology/population"))
        .filter_map(|t| t.object.as_literal().map(Value::from_literal))
        .filter_map(|v| v.as_f64())
        .collect();
    println!("== most surprising population regions ==");
    for r in interest::interesting_ranges(&pops, 24, 3) {
        println!(
            "  [{:>12.0}, {:>12.0})  count={:<5} surprise={:.2}",
            r.lo, r.hi, r.count, r.score
        );
    }

    // -- Explanation: why is one class's mean population anomalous? -------
    // Build records (population, {class, category}) and explain the
    // deviation of the overall mean from the City-only mean.
    let records: Vec<Record> = graph
        .triples_for_predicate(&format!("{ns}ontology/population"))
        .filter_map(|t| {
            let v = t.object.as_literal().map(Value::from_literal)?.as_f64()?;
            let class = graph
                .types_of(&t.subject)
                .first()
                .map(|c| c.local_name().to_string())?;
            Some(Record::new(v, &[("class", class.as_str())]))
        })
        .collect();
    let city_mean = records
        .iter()
        .filter(|r| r.attrs["class"] == "City")
        .map(|r| r.value)
        .sum::<f64>()
        / records
            .iter()
            .filter(|r| r.attrs["class"] == "City")
            .count()
            .max(1) as f64;
    println!("\n== which class explains the deviation from the city mean? ==");
    for e in explain_outlier(&records, city_mean, 3) {
        println!(
            "  remove {}={} ({} records) → mean moves to {:.0} (score {:.1})",
            e.attribute, e.value, e.matched, e.mean_without, e.score
        );
    }

    // -- The session is a first-class value --------------------------------
    println!("\n== session trace ==\n{}", ex.session().trace());
    let _ = ex.session().undo();
    println!("after undo: {} resources", ex.session().matching().len());

    let _ = Term::iri("http://dbp.example.org/resource/E0"); // keep import used
}
