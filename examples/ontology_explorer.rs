//! Ontology exploration — the §3.5 workflow: extract the class hierarchy,
//! render it four ways (layered tree, CropCircles containment, sunburst,
//! nested treemap), discover relationships between entities (RelFinder),
//! and apply ZoomRDF-style fisheye focus to a node-link view.
//!
//! ```sh
//! cargo run --example ontology_explorer
//! ```

use wodex::graph::adjacency::Adjacency;
use wodex::graph::fisheye;
use wodex::graph::layout::{self, FrParams};
use wodex::rdf::vocab::{rdf, rdfs};
use wodex::rdf::{Graph, Term, Triple};
use wodex::viz::{ontology, render};

fn ontology_graph() -> Graph {
    let mut g = Graph::new();
    let sub = |a: &str, b: &str| {
        Triple::iri(
            &format!("http://onto.example.org/{a}"),
            rdfs::SUB_CLASS_OF,
            Term::iri(format!("http://onto.example.org/{b}")),
        )
    };
    // A small place taxonomy.
    for (a, b) in [
        ("PopulatedPlace", "Place"),
        ("NaturalPlace", "Place"),
        ("City", "PopulatedPlace"),
        ("Town", "PopulatedPlace"),
        ("Village", "PopulatedPlace"),
        ("Mountain", "NaturalPlace"),
        ("Lake", "NaturalPlace"),
        ("Capital", "City"),
    ] {
        g.insert(sub(a, b));
    }
    // Instances, skewed toward villages.
    let classes = [
        "Capital", "City", "City", "Town", "Town", "Town", "Village", "Village", "Village",
        "Village", "Village", "Mountain", "Lake",
    ];
    for i in 0..260 {
        let c = classes[i % classes.len()];
        let s = format!("http://onto.example.org/e{i}");
        g.insert(Triple::iri(
            &s,
            rdf::TYPE,
            Term::iri(format!("http://onto.example.org/{c}")),
        ));
        // Chain some entities for the RelFinder demo.
        if i > 0 {
            g.insert(Triple::iri(
                &s,
                "http://onto.example.org/near",
                Term::iri(format!("http://onto.example.org/e{}", i - 1)),
            ));
        }
    }
    g
}

fn main() {
    let g = ontology_graph();
    let ex = wodex::core::Explorer::from_graph(g);

    // -- The class tree, as every ontology browser shows it -----------------
    let h = ex.class_hierarchy();
    println!(
        "== class hierarchy ({} classes, depth {}) ==",
        h.len(),
        h.max_depth()
    );
    print!("{}", h.render());

    // -- Four §3.5 renderings -------------------------------------------------
    for (name, scene) in [
        ("onto_tree.svg", ontology::class_tree(&h, 640.0, 420.0)),
        (
            "onto_cropcircles.svg",
            ontology::crop_circles(&h, 500.0, 500.0),
        ),
        ("onto_sunburst.svg", ontology::sunburst(&h, 500.0, 500.0)),
        (
            "onto_treemap.svg",
            ontology::nested_treemap(&h, 640.0, 420.0),
        ),
    ] {
        std::fs::write(name, render::to_svg(&scene)).expect("write svg");
        println!("\nwrote {name} ({} marks)", scene.mark_count());
    }
    let tree = ontology::class_tree(&h, 640.0, 420.0);
    println!("{}", render::to_ascii(&tree, 76, 22));

    // -- RelFinder: how are e0 and e5 connected? -------------------------------
    let a = Term::iri("http://onto.example.org/e0");
    let b = Term::iri("http://onto.example.org/e5");
    println!("== relationships between e0 and e5 ==");
    for p in ex.find_paths(&a, &b, 6, 3) {
        println!("  [{} hops] {}", p.len(), p.render());
    }

    // -- Fisheye focus on the entity chain -------------------------------------
    let (adj, _) = Adjacency::from_rdf(&ex.graph());
    let lay = layout::fruchterman_reingold(
        &adj,
        FrParams {
            iterations: 30,
            size: 600.0,
            ..Default::default()
        },
    );
    let focus = lay.positions[0];
    let distorted = fisheye::fisheye(&lay, focus, 3.0, 300.0);
    // The DOI filter keeps the semantically nearest nodes full-size.
    let keep = fisheye::doi_top_k(&adj, 0, 1.5, 25);
    println!("\n== fisheye focus ==");
    println!(
        "distorted {} node positions around ({:.0},{:.0}); DOI keeps {} of {} nodes at full size",
        distorted.len(),
        focus.x,
        focus.y,
        keep.len(),
        adj.node_count()
    );
    let edges: Vec<(u32, u32)> = adj.edges().collect();
    let scene =
        wodex::viz::charts::node_link("fisheye view", &distorted, &edges, None, 640.0, 480.0);
    std::fs::write("onto_fisheye.svg", render::to_svg(&scene)).expect("write svg");
    println!("wrote onto_fisheye.svg");

    // -- The matrix half of NodeTrix -------------------------------------------
    let labels: Vec<String> = (0..adj.node_count()).map(|i| format!("n{i}")).collect();
    let (sub, ids) = adj.induced_subgraph(&(0..30u32).collect::<Vec<_>>());
    let sub_edges: Vec<(u32, u32)> = sub.edges().collect();
    let matrix = wodex::viz::charts::adjacency_matrix(
        "adjacency matrix (first 30 entities)",
        sub.node_count(),
        &sub_edges,
        None,
        Some(
            &ids.iter()
                .map(|&i| labels[i as usize].clone())
                .collect::<Vec<_>>(),
        ),
        420.0,
        420.0,
    );
    std::fs::write("onto_matrix.svg", render::to_svg(&matrix)).expect("write svg");
    println!("wrote onto_matrix.svg ({} marks)", matrix.mark_count());
}
