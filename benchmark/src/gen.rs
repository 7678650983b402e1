//! The benchmark's dataset: a seeded generator that writes N-Triples and
//! keeps the model the answers are checked against.
//!
//! The program under test only ever receives the `.nt` file this module
//! writes; the [`Model`] stays on the harness side and is the independent
//! source of expected answers (describe, in-links, class and tier counts,
//! facet/zoom/search result sizes).
//!
//! Shape (part of the benchmark's identity — changing it starts a new
//! trajectory): `entities` resources `b:e{i}`; each has `rdf:type`
//! (Zipf 1.0 over five classes), `b:tier` (first 1 % `Hub`, next 10 %
//! `Mid`, rest `Node`), `rdfs:label`, `b:category` (Zipf 1.0 over 50),
//! `b:population` (Pareto integer), `b:area` (normal, two decimals),
//! `b:founded` (xsd:date) and four `b:cites` arcs whose targets are
//! Zipf(1.05) over the entities — eleven lines per entity, slightly fewer
//! unique triples because an entity may cite one target twice.

use std::io::{self, Write};

pub const NS: &str = "http://bench.example.org/";
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
pub const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";

pub const CLASSES: [&str; 5] = ["City", "Person", "Organisation", "Country", "Film"];
pub const TIERS: [&str; 3] = ["Hub", "Mid", "Node"];
pub const CATEGORIES: usize = 50;
pub const CITES: usize = 4;

const ADJECTIVES: [&str; 16] = [
    "amber", "brisk", "calm", "dusty", "eager", "faint", "grand", "hollow", "ivory", "jolly",
    "keen", "lunar", "mellow", "noble", "opal", "proud",
];
const NOUNS: [&str; 16] = [
    "river", "harbor", "summit", "meadow", "forge", "orchard", "canyon", "lantern", "bridge",
    "garden", "tower", "valley", "market", "island", "forest", "station",
];

/// SplitMix64 — the benchmark's own generator, so the dataset does not
/// change when the repository's `wodex-synth` does.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Cumulative Zipf weights over ranks `0..n`.
pub struct Cdf(Vec<f64>);

impl Cdf {
    pub fn zipf(n: usize, s: f64) -> Cdf {
        let mut acc = 0.0;
        let mut cum: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cum {
            *c /= acc;
        }
        Cdf(cum)
    }

    /// The rank a uniform draw `u` in `[0, 1)` falls on.
    pub fn sample(&self, u: f64) -> usize {
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// One entity's attributes, as indexes and integers so formatting them is
/// the only way they become text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    pub class: u8,
    pub category: u8,
    pub adjective: u8,
    pub noun: u8,
    pub population: u64,
    /// `b:area` in hundredths, so the lexical form is exact.
    pub area_centi: u64,
    pub founded: (u16, u8, u8),
    pub cites: [u32; CITES],
}

/// The generated dataset, harness side.
pub struct Model {
    pub ents: Vec<Entity>,
    /// CSR of distinct citing entities per cited entity.
    in_start: Vec<u32>,
    in_src: Vec<u32>,
}

/// What [`Model::write_ntriples`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    pub lines: u64,
    pub bytes: u64,
    /// FNV-1a 64 of every byte written.
    pub digest: u64,
}

pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Model {
    pub fn generate(seed: u64, entities: u32) -> Model {
        assert!(entities >= 200, "the tiers need at least 200 entities");
        let n = entities as usize;
        let class_cdf = Cdf::zipf(CLASSES.len(), 1.0);
        let category_cdf = Cdf::zipf(CATEGORIES, 1.0);
        let target_cdf = Cdf::zipf(n, 1.05);
        let mut rng = SplitMix64::new(seed ^ 0x5bd1_e995_0dd5_51a7);
        let mut ents = Vec::with_capacity(n);
        for _ in 0..n {
            let class = class_cdf.sample(rng.unit()) as u8;
            let category = category_cdf.sample(rng.unit()) as u8;
            let adjective = rng.below(ADJECTIVES.len() as u64) as u8;
            let noun = rng.below(NOUNS.len() as u64) as u8;
            // Pareto(α = 1.1) over a floor of 1000, capped so the value
            // stays an exact f64 on the zoom path.
            let population = ((1000.0 / (1.0 - rng.unit()).powf(1.0 / 1.1)) as u64).min(50_000_000);
            // Normal(500, 150) by Box–Muller, floored at 1.00.
            let (u1, u2) = (1.0 - rng.unit(), rng.unit());
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let area_centi = ((500.0 + 150.0 * z) * 100.0).max(100.0) as u64;
            let founded = (
                1800 + rng.below(221) as u16,
                1 + rng.below(12) as u8,
                1 + rng.below(28) as u8,
            );
            let mut cites = [0u32; CITES];
            for c in &mut cites {
                *c = target_cdf.sample(rng.unit()) as u32;
            }
            ents.push(Entity {
                class,
                category,
                adjective,
                noun,
                population,
                area_centi,
                founded,
                cites,
            });
        }
        // Reverse index over distinct (source, target) arcs.
        let mut indeg = vec![0u32; n + 1];
        for e in &ents {
            for t in distinct(&e.cites) {
                indeg[t as usize + 1] += 1;
            }
        }
        for i in 0..n {
            indeg[i + 1] += indeg[i];
        }
        let mut fill = indeg.clone();
        let mut in_src = vec![0u32; indeg[n] as usize];
        for (s, e) in ents.iter().enumerate() {
            for t in distinct(&e.cites) {
                in_src[fill[t as usize] as usize] = s as u32;
                fill[t as usize] += 1;
            }
        }
        Model {
            ents,
            in_start: indeg,
            in_src,
        }
    }

    pub fn entities(&self) -> u32 {
        self.ents.len() as u32
    }

    /// Tier index (into [`TIERS`]) of entity `i`.
    pub fn tier(&self, i: u32) -> usize {
        let n = self.entities();
        let hubs = n / 100;
        if i < hubs {
            0
        } else if i < hubs + n / 10 {
            1
        } else {
            2
        }
    }

    /// Distinct entities citing `i`, ascending.
    pub fn citers(&self, i: u32) -> &[u32] {
        &self.in_src[self.in_start[i as usize] as usize..self.in_start[i as usize + 1] as usize]
    }

    pub fn unique_triples(&self) -> u64 {
        self.ents
            .iter()
            .map(|e| 7 + distinct(&e.cites).count() as u64)
            .sum()
    }

    pub fn label(&self, i: u32) -> String {
        let e = &self.ents[i as usize];
        format!(
            "{} {} {i}",
            ADJECTIVES[e.adjective as usize], NOUNS[e.noun as usize]
        )
    }

    pub fn adjective(i: usize) -> &'static str {
        ADJECTIVES[i % ADJECTIVES.len()]
    }

    pub fn area_lexical(e: &Entity) -> String {
        format!("{}.{:02}", e.area_centi / 100, e.area_centi % 100)
    }

    pub fn founded_lexical(e: &Entity) -> String {
        format!("{:04}-{:02}-{:02}", e.founded.0, e.founded.1, e.founded.2)
    }

    /// Streams the dataset as N-Triples.
    pub fn write_ntriples(&self, out: &mut impl Write) -> io::Result<Written> {
        let mut w = Written {
            lines: 0,
            bytes: 0,
            digest: FNV_OFFSET,
        };
        let mut line = String::with_capacity(256);
        let mut emit = |line: &mut String, out: &mut dyn Write| -> io::Result<()> {
            line.push_str(" .\n");
            out.write_all(line.as_bytes())?;
            w.lines += 1;
            w.bytes += line.len() as u64;
            w.digest = fnv1a(line.as_bytes(), w.digest);
            line.clear();
            Ok(())
        };
        for (i, e) in self.ents.iter().enumerate() {
            let s = format!("<{NS}e{i}>");
            let typed = |line: &mut String, p: &str, lex: &str, dt: &str| {
                line.push_str(&format!("{s} <{NS}{p}> \"{lex}\"^^<{dt}>"));
            };
            line.push_str(&format!(
                "{s} <{RDF_TYPE}> <{NS}{}>",
                CLASSES[e.class as usize]
            ));
            emit(&mut line, out)?;
            line.push_str(&format!(
                "{s} <{NS}tier> <{NS}{}>",
                TIERS[self.tier(i as u32)]
            ));
            emit(&mut line, out)?;
            line.push_str(&format!("{s} <{RDFS_LABEL}> \"{}\"", self.label(i as u32)));
            emit(&mut line, out)?;
            line.push_str(&format!("{s} <{NS}category> <{NS}cat{}>", e.category));
            emit(&mut line, out)?;
            typed(
                &mut line,
                "population",
                &e.population.to_string(),
                XSD_INTEGER,
            );
            emit(&mut line, out)?;
            typed(&mut line, "area", &Model::area_lexical(e), XSD_DOUBLE);
            emit(&mut line, out)?;
            typed(&mut line, "founded", &Model::founded_lexical(e), XSD_DATE);
            emit(&mut line, out)?;
            for t in e.cites {
                line.push_str(&format!("{s} <{NS}cites> <{NS}e{t}>"));
                emit(&mut line, out)?;
            }
        }
        Ok(w)
    }
}

/// The distinct values of a cites array, in first-occurrence order.
pub fn distinct(cites: &[u32; CITES]) -> impl Iterator<Item = u32> + '_ {
    cites
        .iter()
        .enumerate()
        .filter(|(k, t)| !cites[..*k].contains(t))
        .map(|(_, &t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(seed: u64) -> Written {
        let mut sink = Vec::new();
        Model::generate(seed, 500)
            .write_ntriples(&mut sink)
            .expect("write to memory")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(written(7), written(7));
        assert_ne!(written(7).digest, written(8).digest);
        assert_eq!(written(7).lines, 500 * (7 + CITES as u64));
    }

    #[test]
    fn reverse_index_matches_forward_arcs() {
        let m = Model::generate(3, 500);
        let arcs: usize = m.ents.iter().map(|e| distinct(&e.cites).count()).sum();
        let indexed: usize = (0..500).map(|i| m.citers(i).len()).sum();
        assert_eq!(arcs, indexed);
        for i in 0..500u32 {
            for &s in m.citers(i) {
                assert!(m.ents[s as usize].cites.contains(&i));
            }
        }
        assert_eq!(m.unique_triples(), 500 * 7 + arcs as u64);
    }
}
