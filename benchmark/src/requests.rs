//! The request mixes: what each workload sends, in which order, and what
//! every answer must be.
//!
//! A mix is a deterministic function of `(seed, client)`: the k-th request
//! of a client is the same bytes in every run. Order is a fixed
//! round-robin over the mix's operation classes; only parameters are
//! drawn from the seed. Every expectation comes from the generator's
//! [`Model`], not from the server.

use crate::answers::{Expect, RowHasher, Table};
use crate::gen::{
    distinct, fnv1a, Model, SplitMix64, CLASSES, FNV_OFFSET, NS, RDFS_LABEL, RDF_TYPE, TIERS,
    XSD_DATE, XSD_DOUBLE, XSD_INTEGER,
};
use crate::http::{encode, Response};
use crate::json::Json;
use std::sync::{Arc, Mutex};

/// A model-derived predicate over a JSON body.
pub type JsonCheck = Box<dyn Fn(&Json) -> Result<(), String> + Send + Sync>;

/// How an HTTP answer is checked beyond status and degradation.
pub enum Check {
    /// `/sparql`: the JSON results document against the expectation.
    Sparql(Expect),
    /// A JSON body against a model-derived predicate.
    Json(JsonCheck),
    /// A body with no independent model (SVG chart, recommendation list):
    /// it must equal, byte for byte, what the same request returned during
    /// set-up. `None` until set-up has recorded it.
    SameBody(Mutex<Option<u64>>),
    /// `POST /data`: effective change counts. The runner reads the
    /// published revision off the same body.
    Commit { inserts: u64, deletes: u64 },
    /// A read of the write batch acknowledged at revision `floor`: the
    /// answer must be pinned at `X-Wodex-Revision` ≥ `floor`, and must be
    /// the whole batch unless that revision is late enough for the writer
    /// to have deleted it again.
    Fresh { floor: u64, batch: Expect },
}

pub struct Op {
    pub class: &'static str,
    pub method: &'static str,
    pub target: String,
    pub body: Vec<u8>,
    pub check: Check,
}

impl Op {
    pub fn sparql(class: &'static str, query: String, expect: Expect) -> Op {
        Op {
            class,
            method: "POST",
            target: "/sparql".to_string(),
            body: query.into_bytes(),
            check: Check::Sparql(expect),
        }
    }

    fn get(class: &'static str, target: String, check: Check) -> Op {
        Op {
            class,
            method: "GET",
            target,
            body: Vec::new(),
            check,
        }
    }

    /// The query text and expectation of a `/sparql` operation.
    pub fn as_sparql(&self) -> Option<(&str, &Expect)> {
        match &self.check {
            Check::Sparql(e) => std::str::from_utf8(&self.body).ok().map(|q| (q, e)),
            _ => None,
        }
    }

    /// Checks one HTTP answer: 200, not degraded, the advertised row
    /// count, then the operation's own check.
    pub fn verify(&self, r: &Response) -> Result<(), String> {
        if r.status != 200 {
            return Err(format!(
                "status {} {:?}",
                r.status,
                String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
            ));
        }
        if let Some(verdict) = r.field("x-wodex-degraded") {
            if verdict != "none" {
                return Err(format!("degraded: {verdict}"));
            }
        }
        let sparql = |expect: &Expect| -> Result<Table, String> {
            let table = Table::from_sparql_json(&r.body)?;
            if let (Table::Rows { rows, .. }, Some(advertised)) = (&table, r.field("x-wodex-rows"))
            {
                if advertised.parse() != Ok(rows.len()) {
                    return Err(format!(
                        "X-Wodex-Rows {advertised} but {} rows sent",
                        rows.len()
                    ));
                }
            }
            expect.verify(&table).map(|()| table)
        };
        let json = || -> Result<Json, String> {
            Json::parse(std::str::from_utf8(&r.body).map_err(|e| e.to_string())?)
        };
        match &self.check {
            Check::Sparql(expect) => sparql(expect).map(drop),
            Check::Json(check) => check(&json()?),
            Check::SameBody(pinned) => {
                let got = fnv1a(&r.body, FNV_OFFSET);
                let mut pinned = pinned.lock().expect("no panic while held");
                match *pinned {
                    None if r.body.is_empty() => Err("empty body".to_string()),
                    None => {
                        *pinned = Some(got);
                        Ok(())
                    }
                    Some(want) if want == got => Ok(()),
                    Some(_) => Err("body differs from the one pinned in set-up".to_string()),
                }
            }
            Check::Commit { inserts, deletes } => {
                let doc = json()?;
                member(&doc, "inserts", *inserts)?;
                member(&doc, "deletes", *deletes)
            }
            Check::Fresh { floor, batch } => {
                let revision: u64 = r
                    .field("x-wodex-revision")
                    .and_then(|v| v.parse().ok())
                    .ok_or("no X-Wodex-Revision")?;
                if revision < *floor {
                    return Err(format!(
                        "read at revision {revision} after a write acknowledged at {floor}"
                    ));
                }
                // The writer deletes a batch only after DELETE_LAG further
                // inserts, each its own revision.
                if revision <= floor + DELETE_LAG {
                    return sparql(batch).map(drop);
                }
                let gone = Expect::Rows { rows: 0, digest: 0 };
                sparql(batch).or_else(|_| sparql(&gone)).map(drop)
            }
        }
    }
}

/// The revision a `POST /data` answer says it published.
pub fn commit_revision(r: &Response) -> Option<u64> {
    let doc = Json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
    doc.get("revision").and_then(Json::as_u64)
}

/// A client's stream of operations.
pub trait Mix: Send {
    fn next_op(&mut self) -> Arc<Op>;
    /// Operations in one full round-robin cycle.
    fn cycle_len(&self) -> usize;
    /// Sees every verified answer to this client's operations; an error
    /// fails the operation. The live mixes check revisions here.
    fn observe(&mut self, _op: &Op, _response: &Response) -> Result<(), String> {
        Ok(())
    }
}

fn ent(i: u32) -> String {
    format!("{NS}e{i}")
}

/// Model rows of `<e_i> ?p ?o`.
fn describe_rows(m: &Model, i: u32) -> Vec<u64> {
    let e = &m.ents[i as usize];
    let row = |p: &str| RowHasher::new().iri("p", p);
    let b = |local: &str| format!("{NS}{local}");
    let mut rows = vec![
        row(RDF_TYPE)
            .iri("o", &b(CLASSES[e.class as usize]))
            .finish(),
        row(&b("tier")).iri("o", &b(TIERS[m.tier(i)])).finish(),
        row(RDFS_LABEL).lit("o", &m.label(i), "").finish(),
        row(&b("category"))
            .iri("o", &b(&format!("cat{}", e.category)))
            .finish(),
        row(&b("population"))
            .lit("o", &e.population.to_string(), XSD_INTEGER)
            .finish(),
        row(&b("area"))
            .lit("o", &Model::area_lexical(e), XSD_DOUBLE)
            .finish(),
        row(&b("founded"))
            .lit("o", &Model::founded_lexical(e), XSD_DATE)
            .finish(),
    ];
    rows.extend(distinct(&e.cites).map(|t| row(&b("cites")).iri("o", &ent(t)).finish()));
    rows
}

pub fn describe(m: &Model, i: u32) -> Op {
    Op::sparql(
        "describe",
        format!("SELECT ?p ?o WHERE {{ <{}> ?p ?o }}", ent(i)),
        Expect::exact(describe_rows(m, i)),
    )
}

pub fn inlinks(m: &Model, i: u32) -> Op {
    let citers = m.citers(i);
    Op::sparql(
        "inlinks",
        format!("SELECT ?s WHERE {{ ?s <{NS}cites> <{}> }} LIMIT 50", ent(i)),
        Expect::any_of(
            citers.len().min(50),
            citers
                .iter()
                .map(|&s| RowHasher::new().iri("s", &ent(s)).finish()),
        ),
    )
}

fn star(m: &Model, i: u32) -> Op {
    let e = &m.ents[i as usize];
    Op::sparql(
        "star",
        format!(
            "SELECT ?l ?c WHERE {{ <{0}> <{RDFS_LABEL}> ?l . <{0}> <{NS}category> ?c }}",
            ent(i)
        ),
        Expect::exact([RowHasher::new()
            .lit("l", &m.label(i), "")
            .iri("c", &format!("{NS}cat{}", e.category))
            .finish()]),
    )
}

fn ask(m: &Model, i: u32, j: u32) -> Op {
    Op::sparql(
        "ask",
        format!("ASK {{ <{}> <{NS}cites> <{}> }}", ent(i), ent(j)),
        Expect::Ask(m.ents[i as usize].cites.contains(&j)),
    )
}

/// `sparql_lookup`: point queries over uniformly drawn entities.
pub struct LookupMix {
    model: Arc<Model>,
    rng: SplitMix64,
    step: usize,
}

impl LookupMix {
    pub fn new(model: Arc<Model>, seed: u64, client: usize) -> LookupMix {
        LookupMix {
            model,
            rng: SplitMix64::new(seed ^ (0x10_0001 * (client as u64 + 1))),
            step: client,
        }
    }

    fn lookup(&mut self) -> Op {
        let m = &*self.model;
        let i = self.rng.below(u64::from(m.entities())) as u32;
        let op = match self.step % 4 {
            0 => describe(m, i),
            1 => inlinks(m, i),
            2 => star(m, i),
            _ => {
                // Alternate a cited target (true) with a random one.
                let j = if self.rng.next_u64() & 1 == 0 {
                    m.ents[i as usize].cites[0]
                } else {
                    self.rng.below(u64::from(m.entities())) as u32
                };
                ask(m, i, j)
            }
        };
        self.step += 1;
        op
    }
}

impl Mix for LookupMix {
    fn next_op(&mut self) -> Arc<Op> {
        Arc::new(self.lookup())
    }

    fn cycle_len(&self) -> usize {
        4
    }
}

/// The nine analytic templates, `variants` parameter settings each, in
/// round-robin order (template-major within a variant). Parameters that
/// decide how much work a query is (which category, which range, which
/// hub) are fixed per variant, so the mix costs the same whatever the
/// seed; the seed picks the dataset and the 2-hop start.
pub fn analytic_ops(m: &Model, seed: u64, variants: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xA7A1_7715);
    let n = m.entities();
    let b = |local: &str| format!("{NS}{local}");
    let count_row = |k: u64| {
        Expect::exact([RowHasher::new()
            .lit("n", &k.to_string(), XSD_INTEGER)
            .finish()])
    };
    let pop_row = |h: RowHasher, i: u32| {
        h.lit(
            "pop",
            &m.ents[i as usize].population.to_string(),
            XSD_INTEGER,
        )
    };

    let class_counts: Vec<u64> = (0..CLASSES.len())
        .map(|c| m.ents.iter().filter(|e| e.class as usize == c).count() as u64)
        .collect();
    let triangles: u64 = m
        .ents
        .iter()
        .enumerate()
        .map(|(a, e)| {
            distinct(&e.cites)
                .flat_map(|bb| distinct(&m.ents[bb as usize].cites))
                .filter(|&c| m.ents[c as usize].cites.contains(&(a as u32)))
                .count() as u64
        })
        .sum();
    let mut top: Vec<u64> = m.ents.iter().map(|e| e.population).collect();
    top.sort_unstable_by(|x, y| y.cmp(x));
    top.truncate(10);

    let tier_pairs = [(0, 0), (0, 1), (1, 0), (0, 2)];
    let mut ops = Vec::new();
    for v in 0..variants {
        let (ta, tb) = tier_pairs[v % tier_pairs.len()];
        let arcs = (0..n)
            .filter(|&a| m.tier(a) == ta)
            .flat_map(|a| distinct(&m.ents[a as usize].cites))
            .filter(|&t| m.tier(t) == tb)
            .count() as u64;
        ops.push(Op::sparql(
            "hub_join",
            format!(
                "SELECT (COUNT(*) AS ?n) WHERE {{ ?a <{0}> <{1}> . ?a <{2}> ?b . ?b <{0}> <{3}> }}",
                b("tier"),
                b(TIERS[ta]),
                b("cites"),
                b(TIERS[tb])
            ),
            count_row(arcs),
        ));
        ops.push(Op::sparql(
            "class_count",
            format!("SELECT ?c (COUNT(?s) AS ?n) WHERE {{ ?s <{RDF_TYPE}> ?c }} GROUP BY ?c"),
            Expect::exact(
                class_counts
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| **k > 0)
                    .map(|(c, k)| {
                        RowHasher::new()
                            .iri("c", &b(CLASSES[c]))
                            .lit("n", &k.to_string(), XSD_INTEGER)
                            .finish()
                    }),
            ),
        ));
        ops.push(Op::sparql(
            "class_avg",
            format!(
                "SELECT ?c (AVG(?pop) AS ?avg) WHERE {{ ?s <{RDF_TYPE}> ?c . ?s <{}> ?pop }} GROUP BY ?c",
                b("population")
            ),
            Expect::Averages(
                (0..CLASSES.len())
                    .filter(|&c| class_counts[c] > 0)
                    .map(|c| {
                        let sum: u64 = m
                            .ents
                            .iter()
                            .filter(|e| e.class as usize == c)
                            .map(|e| e.population)
                            .sum();
                        (b(CLASSES[c]), sum as f64 / class_counts[c] as f64)
                    })
                    .collect(),
            ),
        ));
        let lo = 20_000 + 5_000 * (v as u64 % 4);
        let hi = lo * 2;
        ops.push(Op::sparql(
            "filter_range",
            format!(
                "SELECT ?s ?pop WHERE {{ ?s <{}> ?pop FILTER(?pop > {lo} && ?pop < {hi}) }}",
                b("population")
            ),
            Expect::exact(
                (0..n)
                    .filter(|&i| {
                        let p = m.ents[i as usize].population;
                        p > lo && p < hi
                    })
                    .map(|i| pop_row(RowHasher::new().iri("s", &ent(i)), i).finish()),
            ),
        ));
        let cat = (v % 4) as u8;
        let members: Vec<u32> = (0..n)
            .filter(|&i| m.ents[i as usize].category == cat)
            .collect();
        ops.push(Op::sparql(
            "category_star",
            format!(
                "SELECT ?s ?l ?a WHERE {{ ?s <{}> <{}> . ?s <{RDFS_LABEL}> ?l . ?s <{}> ?a }} LIMIT 2000",
                b("category"),
                b(&format!("cat{cat}")),
                b("area")
            ),
            Expect::any_of(
                members.len().min(2000),
                members.iter().map(|&i| {
                    RowHasher::new()
                        .iri("s", &ent(i))
                        .lit("l", &m.label(i), "")
                        .lit("a", &Model::area_lexical(&m.ents[i as usize]), XSD_DOUBLE)
                        .finish()
                }),
            ),
        ));
        let from = rng.below(u64::from(n)) as u32;
        ops.push(Op::sparql(
            "two_hop",
            format!(
                "SELECT ?c WHERE {{ <{}> <{1}> ?b . ?b <{1}> ?c }}",
                ent(from),
                b("cites")
            ),
            Expect::exact(
                distinct(&m.ents[from as usize].cites)
                    .flat_map(|via| distinct(&m.ents[via as usize].cites))
                    .map(|c| RowHasher::new().iri("c", &ent(c)).finish()),
            ),
        ));
        let hub = (v % 4) as u32;
        let citers = m.citers(hub);
        ops.push(Op::sparql(
            "hub_inlinks_pop",
            format!(
                "SELECT ?s ?pop WHERE {{ ?s <{}> <{}> . ?s <{}> ?pop }} LIMIT 5000",
                b("cites"),
                ent(hub),
                b("population")
            ),
            Expect::any_of(
                citers.len().min(5000),
                citers
                    .iter()
                    .map(|&s| pop_row(RowHasher::new().iri("s", &ent(s)), s).finish()),
            ),
        ));
        ops.push(Op::sparql(
            "triangles",
            format!(
                "SELECT (COUNT(*) AS ?n) WHERE {{ ?a <{0}> ?b . ?b <{0}> ?c . ?c <{0}> ?a }}",
                b("cites")
            ),
            count_row(triangles),
        ));
        ops.push(Op::sparql(
            "top_population",
            format!(
                "SELECT ?pop WHERE {{ ?s <{}> ?pop }} ORDER BY DESC(?pop) LIMIT 10",
                b("population")
            ),
            Expect::exact(top.iter().map(|p| {
                RowHasher::new()
                    .lit("pop", &p.to_string(), XSD_INTEGER)
                    .finish()
            })),
        ));
    }
    ops
}

/// Number of analytic templates (one cycle of [`analytic_ops`]).
pub const ANALYTIC_TEMPLATES: usize = 9;

/// Round-robin over a prebuilt operation list.
pub struct FixedMix {
    ops: Arc<Vec<Arc<Op>>>,
    step: usize,
    cycle: usize,
}

impl FixedMix {
    /// `offset` staggers clients so they do not run the same template at
    /// the same moment.
    pub fn new(ops: Arc<Vec<Arc<Op>>>, offset: usize, cycle: usize) -> FixedMix {
        FixedMix {
            ops,
            step: offset,
            cycle,
        }
    }
}

impl Mix for FixedMix {
    fn next_op(&mut self) -> Arc<Op> {
        let op = Arc::clone(&self.ops[self.step % self.ops.len()]);
        self.step += 1;
        op
    }

    fn cycle_len(&self) -> usize {
        self.cycle
    }
}

fn member(doc: &Json, name: &str, want: u64) -> Result<(), String> {
    match doc.get(name).and_then(Json::as_u64) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{name}: expected {want}, got {got:?}")),
    }
}

fn json_check(f: impl Fn(&Json) -> Result<(), String> + Send + Sync + 'static) -> Check {
    Check::Json(Box::new(f))
}

/// `explore_session`: a state-restoring cycle on one session — overview,
/// facets, filter, facets, zoom, search, hits, details, three undos, then
/// the three viz endpoints. After the third undo the session is back at
/// its initial state, so every cycle does the same work.
pub struct ExploreMix {
    model: Arc<Model>,
    session: String,
    rng: SplitMix64,
    step: usize,
    /// This cycle's parameters.
    cat: u8,
    lo: u64,
    adjective: usize,
    /// Answers without a model, pinned by their set-up bodies.
    chart: Arc<Op>,
    recommend: Arc<Op>,
}

pub const EXPLORE_CYCLE: usize = 14;

impl ExploreMix {
    pub fn new(model: Arc<Model>, session: String, seed: u64, client: usize) -> ExploreMix {
        let chart = Arc::new(Op::get(
            "viz_chart",
            format!("/viz/chart?predicate={}", encode(&format!("{NS}category"))),
            Check::SameBody(Mutex::new(None)),
        ));
        let recommend = Arc::new(Op::get(
            "viz_recommend",
            format!(
                "/viz/recommend?predicate={}",
                encode(&format!("{NS}population"))
            ),
            Check::SameBody(Mutex::new(None)),
        ));
        ExploreMix {
            model,
            session,
            rng: SplitMix64::new(seed ^ (0xE8_9101 * (client as u64 + 1))),
            step: 0,
            cat: 0,
            lo: 0,
            adjective: 0,
            chart,
            recommend,
        }
    }

    fn matching(&self, with_zoom: bool, with_search: bool) -> u64 {
        let (lo, hi) = (self.lo, self.lo * 10);
        self.model
            .ents
            .iter()
            .filter(|e| e.category == self.cat)
            .filter(|e| !with_zoom || (e.population >= lo && e.population < hi))
            .filter(|e| !with_search || e.adjective as usize == self.adjective)
            .count() as u64
    }

    fn session_get(&self, class: &'static str, endpoint: &str, params: &str, check: Check) -> Op {
        Op::get(
            class,
            format!("/explore/{endpoint}?session={}{params}", self.session),
            check,
        )
    }

    fn summary(matching: u64, operations: u64) -> Check {
        json_check(move |doc| {
            member(doc, "matching", matching)?;
            member(doc, "operations", operations)
        })
    }
}

impl Mix for ExploreMix {
    fn next_op(&mut self) -> Arc<Op> {
        let m = Arc::clone(&self.model);
        let phase = self.step % EXPLORE_CYCLE;
        self.step += 1;
        if phase == 0 {
            self.cat = self.rng.below(20) as u8;
            self.lo = 1000 + self.rng.below(4000);
            self.adjective = self.rng.below(16) as usize;
        }
        let category = encode(&format!("{NS}category"));
        let population = encode(&format!("{NS}population"));
        let word = Model::adjective(self.adjective);
        let op = match phase {
            0 => self.session_get(
                "overview",
                "overview",
                "",
                json_check(move |doc| {
                    let classes = doc
                        .get("classes")
                        .and_then(Json::as_arr)
                        .ok_or("no classes")?;
                    for (c, name) in CLASSES.iter().enumerate() {
                        let want = m.ents.iter().filter(|e| e.class as usize == c).count() as u64;
                        let got = classes
                            .iter()
                            .find(|o| {
                                o.get("class").and_then(Json::as_str)
                                    == Some(&format!("{NS}{name}"))
                            })
                            .and_then(|o| o.get("count"))
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        if got != want {
                            return Err(format!("class {name}: expected {want}, got {got}"));
                        }
                    }
                    Ok(())
                }),
            ),
            1 | 3 => self.session_get(
                "facets",
                "facets",
                "",
                json_check(|doc| {
                    let facets = doc
                        .get("facets")
                        .and_then(Json::as_arr)
                        .ok_or("no facets")?;
                    let cardinality = |p: &str| {
                        facets
                            .iter()
                            .find(|f| f.get("predicate").and_then(Json::as_str) == Some(p))
                            .and_then(|f| f.get("cardinality"))
                            .and_then(Json::as_u64)
                    };
                    // Tier always has its three values; class and category
                    // counts depend on the draw, so only their presence is
                    // fixed.
                    if cardinality(&format!("{NS}tier")) != Some(3)
                        || cardinality(RDF_TYPE).is_none()
                        || cardinality(&format!("{NS}category")).is_none()
                    {
                        return Err(format!("unexpected facets {facets:?}"));
                    }
                    Ok(())
                }),
            ),
            2 => self.session_get(
                "filter",
                "filter",
                &format!(
                    "&predicate={category}&value={}",
                    encode(&format!("{NS}cat{}", self.cat))
                ),
                ExploreMix::summary(self.matching(false, false), 1),
            ),
            4 => self.session_get(
                "zoom",
                "zoom",
                &format!("&predicate={population}&lo={}&hi={}", self.lo, self.lo * 10),
                ExploreMix::summary(self.matching(true, false), 2),
            ),
            5 => self.session_get(
                "search",
                "search",
                &format!("&q={word}"),
                ExploreMix::summary(self.matching(true, true), 3),
            ),
            6 => {
                let adjective = self.adjective;
                let total = m
                    .ents
                    .iter()
                    .filter(|e| e.adjective as usize == adjective)
                    .count();
                self.session_get(
                    "hits",
                    "hits",
                    &format!("&q={word}&limit=10"),
                    json_check(move |doc| {
                        let hits = doc.get("hits").and_then(Json::as_arr).ok_or("no hits")?;
                        if hits.len() != total.min(10) {
                            return Err(format!(
                                "expected {} hits, got {}",
                                total.min(10),
                                hits.len()
                            ));
                        }
                        for h in hits {
                            let i = h
                                .get("subject")
                                .and_then(Json::as_str)
                                .and_then(|s| s.strip_prefix(&format!("<{NS}e"))?.strip_suffix('>'))
                                .and_then(|i| i.parse::<usize>().ok())
                                .ok_or_else(|| format!("bad hit {h:?}"))?;
                            if m.ents.get(i).map(|e| e.adjective as usize) != Some(adjective) {
                                return Err(format!("hit e{i} does not carry the keyword"));
                            }
                        }
                        Ok(())
                    }),
                )
            }
            7 => {
                let i = self.rng.below(u64::from(m.entities())) as u32;
                let forward = 7 + distinct(&m.ents[i as usize].cites).count();
                let backward = m.citers(i).iter().filter(|&&s| s != i).count();
                let label = m.label(i);
                self.session_get(
                    "details",
                    "details",
                    &format!("&iri={}", encode(&ent(i))),
                    json_check(move |doc| {
                        let rows = doc.get("rows").and_then(Json::as_arr).ok_or("no rows")?;
                        if rows.len() != forward + backward {
                            return Err(format!(
                                "expected {} rows, got {}",
                                forward + backward,
                                rows.len()
                            ));
                        }
                        match doc.get("label").and_then(Json::as_str) {
                            Some(l) if l == label => Ok(()),
                            other => Err(format!("expected label {label:?}, got {other:?}")),
                        }
                    }),
                )
            }
            8..=10 => {
                let after = match phase {
                    8 => self.matching(true, false),
                    9 => self.matching(false, false),
                    _ => u64::from(m.entities()),
                };
                self.session_get(
                    "undo",
                    "undo",
                    "",
                    json_check(move |doc| member(doc, "matching", after)),
                )
            }
            11 => {
                let n = u64::from(m.entities());
                Op::get(
                    "viz_hist",
                    format!("/viz/hist?predicate={population}&bins=16"),
                    json_check(move |doc| {
                        member(doc, "values", n)?;
                        let bins = doc.get("bins").and_then(Json::as_arr).ok_or("no bins")?;
                        let counted: u64 = bins
                            .iter()
                            .filter_map(|b| b.get("count").and_then(Json::as_u64))
                            .sum();
                        if bins.len() == 16 && counted == n {
                            Ok(())
                        } else {
                            Err(format!(
                                "{} bins holding {counted} of {n} values",
                                bins.len()
                            ))
                        }
                    }),
                )
            }
            12 => return Arc::clone(&self.chart),
            _ => return Arc::clone(&self.recommend),
        };
        Arc::new(op)
    }

    fn cycle_len(&self) -> usize {
        EXPLORE_CYCLE
    }
}

/// What the live writer has had acknowledged, for the reader to check
/// read-your-writes against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acked {
    /// Newest inserted batch and the revision that published it.
    pub batch: Option<(u64, u64)>,
}

pub const BATCH_TRIPLES: usize = 32;
/// A batch is deleted this many inserts after its own.
pub const DELETE_LAG: u64 = 4;

fn batch_subject(k: u64) -> String {
    format!("{NS}w{k}")
}

/// Write batch `k`: one label and 31 `b:mentions` arcs to distinct
/// entities, as N-Triples and as the rows `<w_k> ?p ?o` must return. A
/// predicate of its own keeps the writer from changing any answer the
/// reader's lookups are checked against.
fn batch(seed: u64, k: u64, entities: u32) -> (Vec<u8>, Expect) {
    let mut rng = SplitMix64::new(seed ^ k.wrapping_mul(0xB47C_4001));
    let s = batch_subject(k);
    let label = format!("write batch {k}");
    let mut out = format!("<{s}> <{RDFS_LABEL}> \"{label}\" .\n");
    let mut rows = vec![RowHasher::new()
        .iri("p", RDFS_LABEL)
        .lit("o", &label, "")
        .finish()];
    let mut targets: Vec<u32> = Vec::with_capacity(BATCH_TRIPLES - 1);
    while targets.len() < BATCH_TRIPLES - 1 {
        let t = rng.below(u64::from(entities)) as u32;
        if !targets.contains(&t) {
            targets.push(t);
            out.push_str(&format!("<{s}> <{NS}mentions> <{}> .\n", ent(t)));
            rows.push(
                RowHasher::new()
                    .iri("p", &format!("{NS}mentions"))
                    .iri("o", &ent(t))
                    .finish(),
            );
        }
    }
    (out.into_bytes(), Expect::exact(rows))
}

/// `live_mixed`, client A: insert batch k, then delete batch k − 4, so
/// the store's size stays flat.
pub struct WriterMix {
    seed: u64,
    entities: u32,
    /// Batch numbers start here, so a second writer on the same server
    /// never reuses a subject.
    first_batch: u64,
    step: u64,
    acked: Arc<Mutex<Acked>>,
    /// The last revision this writer published.
    revision: Option<u64>,
}

impl WriterMix {
    pub fn new(seed: u64, entities: u32, acked: Arc<Mutex<Acked>>, first_batch: u64) -> WriterMix {
        WriterMix {
            seed,
            entities,
            first_batch,
            step: 0,
            acked,
            revision: None,
        }
    }

    /// The batch the most recently issued operation inserted, if it was
    /// an insert.
    pub fn last_inserted(&self) -> Option<u64> {
        let last = self.step.checked_sub(1)?;
        if last < DELETE_LAG {
            Some(self.first_batch + last)
        } else {
            let since = last - DELETE_LAG;
            (since % 2 == 1).then_some(self.first_batch + DELETE_LAG + since / 2)
        }
    }
}

impl Mix for WriterMix {
    fn next_op(&mut self) -> Arc<Op> {
        // Steps: insert batches 0..DELETE_LAG, then alternately delete the
        // oldest live batch and insert the next one.
        let since = self.step.saturating_sub(DELETE_LAG);
        let inserts_done = self.first_batch + self.step.min(DELETE_LAG) + since / 2;
        let deleting = self.step >= DELETE_LAG && since.is_multiple_of(2);
        self.step += 1;
        let n = BATCH_TRIPLES as u64;
        Arc::new(if deleting {
            Op {
                class: "commit_delete",
                method: "POST",
                target: "/data?action=delete".to_string(),
                body: batch(self.seed, inserts_done - DELETE_LAG, self.entities).0,
                check: Check::Commit {
                    inserts: 0,
                    deletes: n,
                },
            }
        } else {
            Op {
                class: "commit_insert",
                method: "POST",
                target: "/data".to_string(),
                body: batch(self.seed, inserts_done, self.entities).0,
                check: Check::Commit {
                    inserts: n,
                    deletes: 0,
                },
            }
        })
    }

    fn cycle_len(&self) -> usize {
        2
    }

    /// A single writer publishes consecutive revisions; the newest insert
    /// and its revision are what the reader must be able to see.
    fn observe(&mut self, _op: &Op, response: &Response) -> Result<(), String> {
        let revision = commit_revision(response).ok_or("commit answer carries no revision")?;
        if self.revision.is_some_and(|last| revision != last + 1) {
            return Err(format!(
                "commit published revision {revision} after {:?}",
                self.revision
            ));
        }
        self.revision = Some(revision);
        if let Some(k) = self.last_inserted() {
            self.acked.lock().expect("no panic while held").batch = Some((k, revision));
        }
        Ok(())
    }
}

/// `live_mixed`, client B: the lookup cycle plus a read of the batch the
/// writer last had acknowledged.
pub struct ReaderMix {
    lookups: LookupMix,
    seed: u64,
    acked: Arc<Mutex<Acked>>,
    step: usize,
    /// Newest `X-Wodex-Revision` this client has been answered at.
    seen: u64,
}

impl ReaderMix {
    pub fn new(model: Arc<Model>, seed: u64, acked: Arc<Mutex<Acked>>) -> ReaderMix {
        ReaderMix {
            lookups: LookupMix::new(model, seed, 1),
            seed,
            acked,
            step: 0,
            seen: 0,
        }
    }
}

impl Mix for ReaderMix {
    fn next_op(&mut self) -> Arc<Op> {
        self.step += 1;
        let acked = self
            .acked
            .lock()
            .expect("the lock is never held across a panic")
            .batch;
        match acked {
            Some((k, floor)) if self.step.is_multiple_of(5) => Arc::new(Op {
                class: "fresh",
                method: "POST",
                target: "/sparql".to_string(),
                body: format!("SELECT ?p ?o WHERE {{ <{}> ?p ?o }}", batch_subject(k)).into_bytes(),
                check: Check::Fresh {
                    floor,
                    batch: batch(self.seed, k, self.lookups.model.entities()).1,
                },
            }),
            // Nothing acknowledged yet: a lookup keeps the cycle's length.
            _ => self.lookups.next_op(),
        }
    }

    fn cycle_len(&self) -> usize {
        5
    }

    /// One client's answers are pinned at revisions that never go back.
    fn observe(&mut self, _op: &Op, response: &Response) -> Result<(), String> {
        let revision: u64 = response
            .field("x-wodex-revision")
            .and_then(|v| v.parse().ok())
            .ok_or("no X-Wodex-Revision")?;
        if revision < self.seen {
            return Err(format!(
                "answer at revision {revision} after one at {}",
                self.seen
            ));
        }
        self.seen = revision;
        Ok(())
    }
}
