//! Capability → implementation cross-reference.
//!
//! Every feature column of the survey's tables corresponds to a concrete
//! `wodex` module that implements the technique from scratch. This map is
//! the bridge between deliverable (A) — the survey as data — and
//! deliverable (B) — the reference implementation — and is printed by the
//! `repro` binary so readers can navigate from a table checkmark to code.

/// One capability with its implementing modules and the experiment that
/// exercises it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// The table column name.
    pub feature: &'static str,
    /// Implementing module paths in this workspace.
    pub modules: &'static [&'static str],
    /// The experiment id in EXPERIMENTS.md.
    pub experiment: &'static str,
}

/// The full capability map.
pub fn capability_map() -> Vec<Capability> {
    vec![
        Capability {
            feature: "Sampling",
            modules: &["wodex_approx::sampling", "wodex_graph::sample"],
            experiment: "E1 / E11",
        },
        Capability {
            feature: "Aggregation",
            modules: &[
                "wodex_approx::binning",
                "wodex_approx::clustering",
                "wodex_hetree",
                "wodex_graph::hierarchy",
                "wodex_graph::bundling",
            ],
            experiment: "E2 / E7 / E8 / E9",
        },
        Capability {
            feature: "Incr.",
            modules: &[
                "wodex_approx::progressive",
                "wodex_hetree (ICO)",
                "wodex_store::cracking",
            ],
            experiment: "E3 / E4 / E7",
        },
        Capability {
            feature: "Disk",
            modules: &["wodex_seg"],
            experiment: "E5 / E10",
        },
        Capability {
            feature: "Recomm.",
            modules: &["wodex_viz::recommend", "wodex_viz::ldvm"],
            experiment: "E12",
        },
        Capability {
            feature: "Preferences",
            modules: &["wodex_viz::prefs", "wodex_hetree (ADA)"],
            experiment: "E12",
        },
        Capability {
            feature: "Statistics",
            modules: &["wodex_rdf::stats", "wodex_approx::sketch"],
            experiment: "E1",
        },
        Capability {
            feature: "Keyword",
            modules: &["wodex_explore::search"],
            experiment: "E13",
        },
        Capability {
            feature: "Filter",
            modules: &["wodex_explore::facets", "wodex_explore::session"],
            experiment: "E13",
        },
    ]
}

/// Renders the map as text.
pub fn render() -> String {
    use std::fmt::Write;
    let mut out = String::from("Feature column → wodex implementation → experiment\n\n");
    for c in capability_map() {
        let _ = writeln!(
            out,
            "{:<12} {:<70} {}",
            c.feature,
            c.modules.join(", "),
            c.experiment
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_feature_column_is_covered() {
        let map = capability_map();
        let features: Vec<&str> = map.iter().map(|c| c.feature).collect();
        for col in [
            "Recomm.",
            "Preferences",
            "Statistics",
            "Sampling",
            "Aggregation",
            "Incr.",
            "Disk",
            "Keyword",
            "Filter",
        ] {
            assert!(features.contains(&col), "missing column {col}");
        }
    }

    #[test]
    fn every_capability_names_modules_and_an_experiment() {
        for c in capability_map() {
            assert!(!c.modules.is_empty(), "{} has no modules", c.feature);
            assert!(c.experiment.starts_with('E'));
        }
    }

    #[test]
    fn render_is_complete() {
        let r = render();
        assert!(r.contains("wodex_store::cracking"));
        assert!(r.contains("wodex_viz::recommend"));
        assert!(r.lines().filter(|l| l.contains("E")).count() >= 9);
    }
}
