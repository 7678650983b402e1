//! Cross-crate randomized property tests: the invariants DESIGN.md commits
//! to, exercised on seeded generated inputs.
//!
//! Formerly written with proptest; the build environment has no registry
//! access, so each property now runs a fixed number of seeded cases drawn
//! from the vendored RNG (`wodex::synth::rng`). Same invariants, fully
//! deterministic inputs: case `i` of a test always sees the same generator
//! stream, so any failure reproduces exactly on re-run.

use wodex::approx::binning::{BinningStrategy, Histogram};
use wodex::graph::spatial::{QuadTree, Rect};
use wodex::hetree::{HETree, Variant};
use wodex::rdf::term::Literal;
use wodex::rdf::{Graph, Term, TermDict, Triple};
use wodex::store::cracking::{CrackerColumn, SortedColumn};
use wodex::store::{LruCache, Pattern, TripleStore};
use wodex::synth::rng::{Rng, RngCore, StdRng};

/// Number of generated cases per property.
const CASES: u64 = 64;

/// Runs `body` once per case with a distinct seeded generator.
fn for_each_case(test_tag: u64, body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = wodex::synth::rng(test_tag * 10_007 + case);
        body(&mut rng);
    }
}

fn lowercase(rng: &mut StdRng, lo: usize, hi: usize) -> String {
    let len = rng.random_range(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

/// Arbitrary printable text, with some non-ASCII sprinkled in (the role
/// proptest's `\PC` regex class played).
fn printable(rng: &mut StdRng, max: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '.', ',', ';', ':', '"', '\'', '\\', '<', '>', '{',
        '}', '(', ')', '#', '@', 'é', 'π', '火', '∞', '☂', 'ß', '−', '\t',
    ];
    let len = rng.random_range(0..=max);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

fn arb_term(rng: &mut StdRng) -> Term {
    match rng.random_range(0..5u32) {
        0 => Term::iri(format!("http://e.org/{}", lowercase(rng, 1, 8))),
        1 => Term::blank(lowercase(rng, 1, 6)),
        2 => Term::integer(rng.next_u64() as i64),
        3 => Term::literal(printable(rng, 20)),
        _ => {
            let s = printable(rng, 12);
            let l = lowercase(rng, 2, 2);
            Term::Literal(Literal::lang_string(s, l))
        }
    }
}

fn arb_triple(rng: &mut StdRng) -> Triple {
    let s = lowercase(rng, 1, 6);
    let p = lowercase(rng, 1, 4);
    let o = arb_term(rng);
    Triple::new(
        Term::iri(format!("http://e.org/s/{s}")),
        Term::iri(format!("http://e.org/p/{p}")),
        o,
    )
}

fn arb_triples(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<Triple> {
    let n = rng.random_range(lo..=hi);
    (0..n).map(|_| arb_triple(rng)).collect()
}

#[test]
fn dictionary_roundtrips_any_term() {
    for_each_case(1, |rng| {
        let n = rng.random_range(1..50usize);
        let terms: Vec<Term> = (0..n).map(|_| arb_term(rng)).collect();
        let mut d = TermDict::new();
        let ids: Vec<_> = terms.iter().cloned().map(|t| d.intern(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(*id), t);
            assert_eq!(d.id_of(t), Some(*id));
        }
    });
}

/// The on-disk dictionary front-codes on bytes; a shared prefix may end
/// inside a character. Labels drawn from characters that share lead
/// bytes (é/è/ß: C3, 中/丁/七: E4 B8, 😀/😁: F0 9F 98) make most
/// neighbours split one.
#[test]
fn segment_dictionary_roundtrips_non_ascii_neighbours() {
    const POOL: &[char] = &['a', 'é', 'è', 'ß', '中', '丁', '七', '😀', '😁', 'π', '"'];
    let dir = std::env::temp_dir().join(format!("wodex_prop_dict_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dict.wdx");
    for_each_case(16, |rng| {
        let mut d = TermDict::new();
        for _ in 0..rng.random_range(1..40usize) {
            let len = rng.random_range(0..4usize);
            let label: String = (0..len)
                .map(|_| POOL[rng.random_range(0..POOL.len())])
                .collect();
            d.intern(match rng.random_range(0..3u32) {
                0 => Term::literal(label),
                1 => Term::Literal(Literal::lang_string(label, "el")),
                _ => Term::iri(format!("http://e.org/{}", label.replace('"', ""))),
            });
        }
        wodex::seg::write_dict(&d, &path).expect("write");
        let back = wodex::seg::read_dict(&path).expect("what the writer wrote must read back");
        assert_eq!(back.len(), d.len());
        for (id, term) in d.iter() {
            assert_eq!(back.term(id), term);
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ntriples_roundtrips_any_graph() {
    for_each_case(2, |rng| {
        let g: Graph = arb_triples(rng, 0, 40).into_iter().collect();
        let nt = wodex::rdf::ntriples::serialize(&g);
        let back = wodex::rdf::ntriples::parse(&nt).expect("own serialization parses");
        assert_eq!(g, back);
    });
}

#[test]
fn turtle_roundtrips_any_graph() {
    for_each_case(3, |rng| {
        let g: Graph = arb_triples(rng, 0, 40).into_iter().collect();
        let ttl = wodex::rdf::turtle::serialize(&g);
        let back = wodex::rdf::turtle::parse(&ttl).expect("own serialization parses");
        assert_eq!(g, back);
    });
}

#[test]
fn store_pattern_match_equals_naive_filter() {
    for_each_case(4, |rng| {
        let g: Graph = arb_triples(rng, 1, 60).into_iter().collect();
        let store = TripleStore::from_graph(&g);
        let all = store.match_pattern(Pattern::any());
        // Pick one existing triple and probe all 8 bound/unbound combos.
        let probe = all[rng.random_range(0..all.len())];
        for mask in 0..8u8 {
            let pat = Pattern {
                s: (mask & 1 != 0).then_some(wodex::rdf::TermId(probe[0])),
                p: (mask & 2 != 0).then_some(wodex::rdf::TermId(probe[1])),
                o: (mask & 4 != 0).then_some(wodex::rdf::TermId(probe[2])),
            };
            let mut got = store.match_pattern(pat);
            let mut want: Vec<_> = all.iter().filter(|t| pat.matches(t)).copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    });
}

#[test]
fn cracking_agrees_with_sorted_baseline() {
    for_each_case(5, |rng| {
        let n = rng.random_range(1..300usize);
        let values: Vec<f64> = (0..n).map(|_| rng.random_range(-1e6..1e6)).collect();
        let sorted = SortedColumn::new(&values);
        let mut cracked = CrackerColumn::new(&values);
        let q = rng.random_range(1..12usize);
        for _ in 0..q {
            let a: f64 = rng.random_range(-1e6..1e6);
            let b: f64 = rng.random_range(-1e6..1e6);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert_eq!(cracked.range_count(lo, hi), sorted.range_count(lo, hi));
            assert!(cracked.check_invariants());
        }
    });
}

#[test]
fn binning_partitions_cover_and_are_disjoint() {
    for_each_case(6, |rng| {
        let n = rng.random_range(1..500usize);
        let values: Vec<f64> = (0..n).map(|_| rng.random_range(-1e4..1e4)).collect();
        let k = rng.random_range(1..32usize);
        for strategy in [
            BinningStrategy::EqualWidth,
            BinningStrategy::EqualFrequency,
            BinningStrategy::VarianceMinimizing,
        ] {
            let h = Histogram::build(&values, k, strategy);
            assert_eq!(h.total(), values.len(), "{strategy:?}");
            // Bins tile: each bin's hi equals the next bin's lo.
            for w in h.bins.windows(2) {
                assert!(w[0].hi <= w[1].lo + 1e-9);
            }
        }
    });
}

#[test]
fn quadtree_query_equals_brute_force() {
    for_each_case(7, |rng| {
        let n = rng.random_range(1..200usize);
        let layout = wodex::graph::layout::Layout {
            positions: (0..n)
                .map(|_| {
                    wodex::graph::layout::Point::new(
                        rng.random_range(0.0..100.0f32),
                        rng.random_range(0.0..100.0f32),
                    )
                })
                .collect(),
        };
        let qt = QuadTree::from_layout(&layout);
        let w = Rect::new(
            rng.random_range(0.0..100.0f32),
            rng.random_range(0.0..100.0f32),
            rng.random_range(0.0..100.0f32),
            rng.random_range(0.0..100.0f32),
        );
        let (mut got, _) = qt.query(&w);
        got.sort_by_key(|&(_, id)| id);
        let want: Vec<u32> = layout
            .positions
            .iter()
            .enumerate()
            .filter(|(_, p)| w.contains(p))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got.iter().map(|&(_, id)| id).collect::<Vec<_>>(), want);
    });
}

#[test]
fn hetree_frontier_partitions_items() {
    for_each_case(8, |rng| {
        let n = rng.random_range(1..400usize);
        let values: Vec<f64> = (0..n).map(|_| rng.random_range(-1e3..1e3)).collect();
        let degree = rng.random_range(2..6usize);
        let depth = rng.random_range(0..4usize);
        let items: Vec<(f64, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        let mut t = HETree::new(items, Variant::ContentBased, degree, 10);
        let frontier = t.level(depth);
        let total: usize = frontier.iter().map(|&c| t.stats(c).count).sum();
        assert_eq!(total, values.len());
        // Stats of every frontier node agree with direct computation.
        for &c in &frontier {
            let direct = wodex::hetree::Stats::of(t.items(c));
            assert_eq!(&direct, t.stats(c));
        }
    });
}

#[test]
fn reservoir_size_invariant() {
    for_each_case(9, |rng| {
        let n = rng.random_range(1..2000usize);
        let k = rng.random_range(1..64usize);
        let mut sample_rng = wodex::synth::rng(n as u64);
        let mut r = wodex::approx::sampling::Reservoir::new(k);
        r.extend(0..n, &mut sample_rng);
        assert_eq!(r.sample().len(), k.min(n));
        assert!(r.sample().iter().all(|&x| x < n));
    });
}

/// Arbitrary text with Turtle-ish fragments sprinkled in.
fn arb_ttl_junk(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..12usize);
    let parts: Vec<String> = (0..n)
        .map(|_| match rng.random_range(0..7u32) {
            0 => printable(rng, 12),
            1 => "@prefix ex: <http://e.org/> .".to_string(),
            2 => "ex:s ex:p".to_string(),
            3 => "\"lit".to_string(),
            4 => "<http://e.org/x>".to_string(),
            5 => "{ } ( ) ; , .".to_string(),
            _ => "\\u12".to_string(),
        })
        .collect();
    parts.join(" ")
}

#[test]
fn parsers_never_panic_on_junk() {
    for_each_case(10, |rng| {
        let input = arb_ttl_junk(rng);
        // Errors are fine; panics are not.
        let _ = wodex::rdf::turtle::parse(&input);
        let _ = wodex::rdf::ntriples::parse(&input);
        let _ = wodex::sparql::parse_query(&input);
    });
}

/// A name of letters and digits from several scripts: what a blank-node
/// label or the local part of a prefixed name may hold.
fn unicode_name(rng: &mut StdRng) -> String {
    const POOL: &[char] = &['a', 'Z', '7', '_', '-', 'é', 'ß', 'π', '火', '中'];
    let len = rng.random_range(1..=6usize);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

/// A graph whose IRIs, blank labels and literals are mostly not ASCII.
fn arb_unicode_graph(rng: &mut StdRng) -> Graph {
    const IRI_EXTRA: &[&str] = &["", "☂", "😀", "∞/", "#", "−.", "%C3%A9"];
    let iri = |rng: &mut StdRng, ns: &str| {
        let extra = IRI_EXTRA[rng.random_range(0..IRI_EXTRA.len())];
        Term::iri(format!("{ns}{extra}{}", unicode_name(rng)))
    };
    let n = rng.random_range(0..30usize);
    (0..n)
        .map(|_| {
            let s = match rng.random_range(0..3u32) {
                0 => Term::blank(unicode_name(rng)),
                _ => iri(rng, "http://e.org/s/"),
            };
            // A prefix the Turtle serializer abbreviates, so locals are read back too.
            let p = Term::iri(format!("http://xmlns.com/foaf/0.1/{}", unicode_name(rng)));
            let o = match rng.random_range(0..4u32) {
                0 => iri(rng, "http://e.org/o/"),
                1 => Term::blank(unicode_name(rng)),
                2 => Term::Literal(Literal::lang_string(printable(rng, 12), "el")),
                _ => arb_term(rng),
            };
            Triple::new(s, p, o)
        })
        .collect()
}

/// One lexer under both parsers: an N-Triples document is a Turtle
/// document and reads the same either way, whatever script it is in.
#[test]
fn turtle_reads_any_ntriples_document_as_ntriples_does() {
    for_each_case(17, |rng| {
        let g = arb_unicode_graph(rng);
        let doc = wodex::rdf::ntriples::serialize(&g);
        let from_nt = wodex::rdf::ntriples::parse(&doc).expect("own serialization parses");
        assert_eq!(from_nt, g, "{doc}");
        let from_ttl = wodex::rdf::turtle::parse(&doc).expect("N-Triples is Turtle");
        assert_eq!(from_ttl, from_nt, "{doc}");
        let ttl = wodex::rdf::turtle::serialize(&g);
        let back = wodex::rdf::turtle::parse(&ttl).expect("own serialization parses");
        assert_eq!(back, g, "{ttl}");
    });
}

/// Base seed of the mutation sweep; override with `WODEX_FAULT_SEED=<n>`.
fn base_seed() -> u64 {
    std::env::var("WODEX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Valid inputs for the mutation sweep: N-Triples lines and terms, Turtle
/// documents and SPARQL queries, multi-byte characters next to syntax.
const MUTATION_SEEDS: &[&str] = &[
    "<http://e.org/café> <http://e.org/p> \"caf\\u00E9 \\\"火\\\"\"@fr .",
    "_:b火 <http://e.org/p> \"😀\"^^<http://e.org/dt#火> . # π",
    "\"naïve ☂\"^^<http://e.org/dt>",
    "<http://e.org/∞>",
    "@prefix ex: <http://e.org/> .\n@base <http://b.org/> .\n\
     ex:café a ex:Lieu ; ex:nom \"café\"@fr, '''long\n'火' string''' ; ex:n 1.5, -2e3, 7 ;\n\
     ex:l (1 [ ex:p <rel> ] true) . # comment π\n_:é ex:p \"\\U0001F600\"^^ex:dt .",
    "PREFIX ex: <http://e.org/>\nSELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:café \"caf\\u00E9\"@fr ;\n\
     ex:p 'it\\'s ☂'^^ex:dt . OPTIONAL { ?s ex:q 1.5e3 } FILTER(CONTAINS(?o, \"é\") && ?n >= -2 || \
     !(?s != <http://e.org/π>)) } GROUP BY ?s ORDER BY DESC(?n) LIMIT 5 # 火",
    "DESCRIBE <http://e.org/café> ex:naïve",
];

/// ROADMAP 7(c) for the text decoders: flip, cut and splice valid input —
/// cuts fall inside multi-byte characters too — and drive every entry
/// point of the one lexer. `Ok` or a typed error, never a panic, never an
/// offset outside the text or inside a character.
#[test]
fn mutated_rdf_and_sparql_text_parses_or_fails_typed() {
    let mut rng = wodex::synth::rng(base_seed());
    for round in 0..20_000 {
        let seed = MUTATION_SEEDS[round % MUTATION_SEEDS.len()].as_bytes();
        let mut bytes = seed.to_vec();
        for _ in 0..rng.random_range(1..=3u32) {
            let at = rng.random_range(0..=bytes.len());
            match rng.random_range(0..4u32) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
                1 => bytes.truncate(at),
                2 => {
                    let other =
                        MUTATION_SEEDS[rng.random_range(0..MUTATION_SEEDS.len())].as_bytes();
                    let from = rng.random_range(0..other.len());
                    let to = rng.random_range(from..=other.len());
                    bytes.splice(at..at, other[from..to].iter().copied());
                }
                _ => {
                    bytes.drain(at..rng.random_range(at..=bytes.len()));
                }
            }
        }
        // What `POST /data` and `/sparql` hand the parsers is always UTF-8.
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(term) = wodex::rdf::ntriples::parse_term(&text) {
            let again = wodex::rdf::ntriples::parse_term(&term.to_string());
            assert_eq!(again.as_ref(), Ok(&term), "{text:?}");
        }
        if let Ok(Some(triple)) = wodex::rdf::ntriples::parse_line(&text, 1) {
            let mut line = String::new();
            wodex::rdf::ntriples::serialize_triple(&triple, &mut line);
            let again = wodex::rdf::ntriples::parse_line(line.trim_end(), 1);
            assert_eq!(again, Ok(Some(triple)), "{text:?}");
        }
        let _ = wodex::rdf::turtle::parse(&text);
        if let Err(e) = wodex::sparql::parse_query(&text) {
            assert!(text.is_char_boundary(e.offset), "{text:?} → {e}");
        }
    }
}

/// Valid requests for the HTTP sweep: with and without a body, leading
/// blank lines, bare LF, HTTP/1.0, a multi-byte body.
const HTTP_SEEDS: &[&str] = &[
    "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    "POST /sparql?deadline_ms=5 HTTP/1.1\r\nHost: t\r\nContent-Length: 16\r\n\r\nASK { ?s ?p ?o }",
    "POST /data HTTP/1.1\nContent-Length: 18\nConnection: close\n\n<a> <b> \"caf\u{e9}\" .\n",
    "\r\n\r\nGET /explore/hits?session=s1&q=caf%C3%A9+x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
];

/// Header lines that frame a body wrongly, for the sweep to splice in.
const HTTP_LENGTHS: &[&str] = &[
    "Content-Length: 18446744073709551616\r\n",
    "Content-Length: 4294967296\r\n",
    "Content-Length: -1\r\n",
    "Content-Length: +3\r\n",
    "Content-Length: 3\r\n",
    "Content-Length: 3, 3\r\n",
    "Transfer-Encoding: chunked\r\n",
];

/// Where the request at the start of `buf` has its body and its end —
/// read off the whole buffer at once, not incrementally as the parser
/// does. Only consulted for requests the parser accepted.
fn http_frame(buf: &[u8]) -> (usize, usize) {
    let mut at = 0;
    let mut seen_request_line = false;
    let mut length = 0;
    loop {
        let end = at + buf[at..].iter().position(|&b| b == b'\n').expect("a line") + 1;
        let line = String::from_utf8_lossy(&buf[at..end]);
        let line = line.trim_end_matches(['\r', '\n']);
        at = end;
        if line.is_empty() && seen_request_line {
            return (at, at + length);
        }
        if let Some((name, value)) = line.split_once(':').filter(|_| seen_request_line) {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().expect("an accepted length");
            }
        }
        seen_request_line |= !line.is_empty();
    }
}

/// ROADMAP 7(c) for the HTTP decoder, which on a persistent connection
/// also decides where the *next* request starts: cut, flip and splice
/// one to three requests in a buffer and parse until the parser stops.
/// `Ok`, `Closed` or `Malformed` — never a panic, never an I/O error (an
/// in-memory reader has none), never a body beyond the cap — and every
/// accepted request leaves the reader exactly at the next one.
#[test]
fn mutated_http_requests_parse_or_fail_typed_and_stay_framed() {
    use std::io::Cursor;
    use wodex::serve::http::{read_request, ParseError};
    let mut rng = wodex::synth::rng(base_seed() ^ 0x4717);
    for round in 0..20_000 {
        let mut bytes = Vec::new();
        let requests = rng.random_range(1..=3usize);
        for i in 0..requests {
            bytes.extend_from_slice(HTTP_SEEDS[(round + i) % HTTP_SEEDS.len()].as_bytes());
        }
        let intact = bytes.clone();
        for _ in 0..rng.random_range(0..=3u32) {
            let at = rng.random_range(0..=bytes.len());
            match rng.random_range(0..5u32) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
                1 => bytes.truncate(at),
                2 => {
                    // After a line end, so that it reads as a header.
                    let at = bytes[..at]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |i| i + 1);
                    let line = HTTP_LENGTHS[rng.random_range(0..HTTP_LENGTHS.len())];
                    bytes.splice(at..at, line.bytes());
                }
                3 => bytes.retain(|&b| b != b'\r'),
                _ => {
                    bytes.drain(at..rng.random_range(at..=bytes.len()));
                }
            }
        }
        let mut reader = Cursor::new(&bytes[..]);
        let mut parsed = 0;
        loop {
            let at = reader.position() as usize;
            match read_request(&mut reader) {
                Ok(req) => {
                    let (body, end) = http_frame(&bytes[at..]);
                    let text = String::from_utf8_lossy(&bytes);
                    assert_eq!(reader.position() as usize, at + end, "{text:?}");
                    assert_eq!(req.body, bytes[at + body..at + end], "{text:?}");
                    assert!(req.body.len() <= 1024 * 1024);
                    parsed += 1;
                }
                Err(ParseError::Closed) => {
                    let rest = &bytes[at..];
                    assert!(rest.iter().all(|b| matches!(b, b'\r' | b'\n')), "{rest:?}");
                    break;
                }
                Err(ParseError::Malformed(_)) => break,
                Err(ParseError::Io(e)) => panic!("{e} on {:?}", String::from_utf8_lossy(&bytes)),
            }
        }
        if bytes == intact {
            assert_eq!(parsed, requests, "{:?}", String::from_utf8_lossy(&bytes));
        }
    }
    // A length is refused for what it says, before anything is allocated
    // or read for it: the body here is absent, and "too large" — not
    // "eof inside body" — is the answer.
    let huge = b"POST /data HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n";
    assert!(matches!(
        read_request(&mut Cursor::new(&huge[..])),
        Err(ParseError::Malformed("body too large"))
    ));
}

#[test]
fn insert_delete_sequences_keep_store_consistent() {
    for_each_case(11, |rng| {
        let ops: Vec<(bool, u32, u32, u32)> = {
            let n = rng.random_range(1..80usize);
            (0..n)
                .map(|_| {
                    (
                        rng.random_range(0..2u32) == 0,
                        rng.random_range(0..12u32),
                        rng.random_range(0..4u32),
                        rng.random_range(0..12u32),
                    )
                })
                .collect()
        };
        let tail_limit = rng.random_range(0..16usize);
        // Mirror a TripleStore against a BTreeSet of decoded triples.
        let mut store = TripleStore::with_tail_limit(tail_limit);
        let mut model: std::collections::BTreeSet<(u32, u32, u32)> = Default::default();
        let term_s = |i: u32| Term::iri(format!("http://e.org/s{i}"));
        let term_p = |i: u32| Term::iri(format!("http://e.org/p{i}"));
        let term_o = |i: u32| Term::iri(format!("http://e.org/o{i}"));
        for (insert, s, p, o) in ops {
            let t = Triple::new(term_s(s), term_p(p), term_o(o));
            if insert {
                let added = store.insert(&t);
                assert_eq!(added, model.insert((s, p, o)));
            } else {
                let removed = store.remove(&t);
                assert_eq!(removed, model.remove(&(s, p, o)));
            }
            assert_eq!(store.len(), model.len());
        }
        // Final state: every model triple present, every pattern count right.
        for &(s, p, o) in &model {
            assert!(store.contains(&Triple::new(term_s(s), term_p(p), term_o(o))));
        }
        let all = store.match_pattern(Pattern::any());
        assert_eq!(all.len(), model.len());
        for p in 0..4u32 {
            let pat = store
                .encode_pattern(None, Some(&term_p(p)), None)
                .map(|pat| store.count_pattern(pat))
                .unwrap_or(0);
            let want = model.iter().filter(|&&(_, mp, _)| mp == p).count();
            assert_eq!(pat, want);
        }
    });
}

/// The workspace's one LRU against a naive model: a `Vec` ordered from
/// least to most recently used, scanned linearly.
#[test]
fn lru_cache_agrees_with_a_naive_recency_list() {
    for_each_case(15, |rng| {
        let capacity = rng.random_range(1..40usize);
        let mut cache: LruCache<u32, u64> = LruCache::new(capacity);
        let mut model: Vec<(u32, u64, usize)> = Vec::new(); // (key, value, weight)
        let (mut lookups, mut evictions) = (0u64, 0u64);
        for step in 0..rng.random_range(1..200u64) {
            let key = rng.random_range(0..12u32);
            let at = model.iter().position(|e| e.0 == key);
            match rng.random_range(0..4u32) {
                0 => {
                    lookups += 1;
                    let want = at.map(|i| {
                        let e = model.remove(i);
                        model.push(e); // now the most recently used
                        e.1
                    });
                    assert_eq!(cache.get(&key).copied(), want);
                }
                1 => {
                    assert_eq!(cache.remove(&key), at.map(|i| model.remove(i).1));
                }
                _ => {
                    // One weight in eight is heavier than the whole cache.
                    let weight = rng.random_range(0..capacity + capacity / 7 + 2);
                    if let Some(i) = at {
                        model.remove(i); // a same-key insert re-accounts
                    }
                    if weight <= capacity {
                        model.push((key, step, weight));
                        while model.iter().map(|e| e.2).sum::<usize>() > capacity {
                            model.remove(0); // the least recently used
                            evictions += 1;
                        }
                    } // else refused: nothing else leaves
                    cache.insert(key, step, weight);
                }
            }
            let resident: usize = model.iter().map(|e| e.2).sum();
            assert!(resident <= capacity);
            assert_eq!(cache.weight(), resident);
            assert_eq!(cache.len(), model.len());
            for k in 0..12u32 {
                let want = model.iter().find(|e| e.0 == k).map(|e| &e.1);
                assert_eq!(cache.peek(&k), want, "key {k} after step {step}");
            }
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, lookups);
            assert_eq!(stats.evictions, evictions);
        }
    });
}

#[test]
fn sparql_single_pattern_equals_store_match() {
    for_each_case(12, |rng| {
        let n = rng.random_range(1..60usize);
        let g: Graph = (0..n)
            .map(|_| {
                Triple::new(
                    Term::iri(format!("http://e.org/s{}", rng.random_range(0..8u32))),
                    Term::iri(format!("http://e.org/p{}", rng.random_range(0..4u32))),
                    Term::iri(format!("http://e.org/o{}", rng.random_range(0..8u32))),
                )
            })
            .collect();
        let probe_p = rng.random_range(0..4u32);
        let store = TripleStore::from_graph(&g);
        let q = format!("SELECT ?s ?o WHERE {{ ?s <http://e.org/p{probe_p}> ?o }}");
        let result = wodex::sparql::query(&store, &q).expect("valid query");
        let got = result.table().expect("select").len();
        let want = g
            .triples_for_predicate(&format!("http://e.org/p{probe_p}"))
            .count();
        assert_eq!(got, want);
    });
}

#[test]
fn fisheye_is_radially_monotone_and_bounded() {
    for_each_case(13, |rng| {
        let n = rng.random_range(2..80usize);
        let layout = wodex::graph::layout::Layout {
            positions: (0..n)
                .map(|_| {
                    wodex::graph::layout::Point::new(
                        rng.random_range(0.0..500.0f32),
                        rng.random_range(0.0..500.0f32),
                    )
                })
                .collect(),
        };
        let f = wodex::graph::layout::Point::new(
            rng.random_range(0.0..500.0f32),
            rng.random_range(0.0..500.0f32),
        );
        let d = rng.random_range(0.0..8.0f32);
        let out = wodex::graph::fisheye::fisheye(&layout, f, d, 250.0);
        // Bounded: nothing inside the lens leaves it; outside untouched.
        for (orig, moved) in layout.positions.iter().zip(&out.positions) {
            let r = orig.dist(&f);
            if r >= 250.0 {
                assert_eq!(orig, moved);
            } else {
                assert!(moved.dist(&f) <= 250.0 + 1e-2);
            }
        }
        // Monotone: radial order is preserved within the lens.
        let mut idx: Vec<usize> = (0..layout.positions.len())
            .filter(|&i| layout.positions[i].dist(&f) < 250.0)
            .collect();
        idx.sort_by(|&a, &b| {
            layout.positions[a]
                .dist(&f)
                .total_cmp(&layout.positions[b].dist(&f))
        });
        for w in idx.windows(2) {
            assert!(out.positions[w[0]].dist(&f) <= out.positions[w[1]].dist(&f) + 1e-2);
        }
    });
}

#[test]
fn class_hierarchy_weights_are_consistent() {
    for_each_case(14, |rng| {
        let links: Vec<(u32, u32)> = {
            let n = rng.random_range(0..20usize);
            (0..n)
                .map(|_| (rng.random_range(0..12u32), rng.random_range(0..12u32)))
                .collect()
        };
        let instances: Vec<u32> = {
            let n = rng.random_range(0..40usize);
            (0..n).map(|_| rng.random_range(0..12u32)).collect()
        };
        let mut g = Graph::new();
        for &(a, b) in &links {
            if a != b {
                g.insert(Triple::new(
                    Term::iri(format!("http://e.org/C{a}")),
                    Term::iri(wodex::rdf::vocab::rdfs::SUB_CLASS_OF),
                    Term::iri(format!("http://e.org/C{b}")),
                ));
            }
        }
        for (i, &c) in instances.iter().enumerate() {
            g.insert(Triple::new(
                Term::iri(format!("http://e.org/i{i}")),
                Term::iri(wodex::rdf::vocab::rdf::TYPE),
                Term::iri(format!("http://e.org/C{c}")),
            ));
        }
        let h = wodex::rdf::ClassHierarchy::extract(&g);
        // Root transitive weights sum to the total instance count.
        let total: usize = h
            .roots
            .iter()
            .map(|&r| h.nodes[r].transitive_instances)
            .sum();
        assert_eq!(total, instances.len());
        // Every node's transitive count ≥ its direct count, and equals
        // direct + children's transitive.
        for n in &h.nodes {
            let kids: usize = n
                .children
                .iter()
                .map(|&c| h.nodes[c].transitive_instances)
                .sum();
            assert_eq!(n.transitive_instances, n.direct_instances + kids);
        }
    });
}

// ---------------------------------------------------------------------------
// Prometheus exposition (wodex-obs, PR 4)
// ---------------------------------------------------------------------------

/// Arbitrary metric-ish name: mostly valid characters with some invalid
/// ones sprinkled in, so sanitization is exercised on every case.
fn arb_metric_name(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a', 'z', 'A', 'Z', '_', ':', '0', '9', '-', '.', ' ', 'é', '☂',
    ];
    let len = rng.random_range(1..=16usize);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

#[test]
fn prometheus_rendering_is_parseable_and_escaped() {
    // Whatever names and label values go in, every rendered line must be
    // a comment or `name{labels} value` with a well-formed name and no
    // raw newline, quote, or backslash leaking out of a label value.
    for_each_case(41, |rng| {
        let reg = wodex::obs::MetricsRegistry::new();
        let families = rng.random_range(1..=5usize);
        for f in 0..families {
            let name = arb_metric_name(rng);
            let label_value = printable(rng, 16);
            let c = reg.counter_with(&name, "prop test", &[("lv", &label_value)]);
            c.add(rng.next_u64() % 1_000_000);
            if f % 2 == 0 {
                reg.gauge(&format!("{name}_g"), "prop gauge")
                    .set(rng.next_u64() as i64 % 1_000);
            }
        }
        let text = wodex::obs::render_prometheus(&reg);
        let valid_name = |s: &str| {
            !s.is_empty()
                && s.chars().enumerate().all(|(i, ch)| {
                    ch.is_ascii_alphabetic()
                        || ch == '_'
                        || ch == ':'
                        || (i > 0 && ch.is_ascii_digit())
                })
        };
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "unknown comment: {line}"
                );
                continue;
            }
            let name_end = line.find(['{', ' ']).expect("sample has name");
            assert!(valid_name(&line[..name_end]), "bad name in: {line}");
            if let Some(open) = line.find('{') {
                let close = line.rfind('}').expect("closing brace");
                let labels = &line[open + 1..close];
                // Inside the braces, every quote is either a delimiter or
                // escaped; an unescaped raw newline is impossible by
                // construction (lines() would have split it).
                assert!(!labels.is_empty());
                assert!(line[close..].starts_with("} "), "value after labels");
            }
            let value = line.rsplit(' ').next().expect("value field");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value {value:?} in: {line}"
            );
        }
    });
}

#[test]
fn prometheus_rendering_is_deterministic_and_sorted() {
    // Registration order is randomized; the exposition must not care:
    // two renders are byte-identical, families appear sorted by name,
    // and each family's HELP/TYPE header appears exactly once.
    for_each_case(42, |rng| {
        let reg = wodex::obs::MetricsRegistry::new();
        let mut names: Vec<String> = (0..rng.random_range(2..=6usize))
            .map(|i| format!("m_{}_{i}", lowercase(rng, 1, 6)))
            .collect();
        // Shuffle by seeded swaps.
        for i in (1..names.len()).rev() {
            let j = rng.random_range(0..(i + 1));
            names.swap(i, j);
        }
        for name in &names {
            for series in 0..rng.random_range(1..=3usize) {
                reg.counter_with(name, "det test", &[("s", &series.to_string())])
                    .add(rng.next_u64() % 1000);
            }
        }
        let a = wodex::obs::render_prometheus(&reg);
        let b = wodex::obs::render_prometheus(&reg);
        assert_eq!(a, b, "rendering must be deterministic");
        let headered: Vec<&str> = a
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let mut sorted = headered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(headered, sorted, "families must be sorted and unique");
        let series_lines: Vec<&str> = a.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted_series = series_lines.clone();
        sorted_series.sort_unstable();
        assert_eq!(
            series_lines, sorted_series,
            "series must be sorted within and across families"
        );
    });
}

#[test]
fn prometheus_histogram_buckets_are_cumulative_and_consistent() {
    // For any observation stream: bucket counts non-decreasing in `le`
    // order, `+Inf` bucket == `_count` == number of observations, and
    // `_sum` equals the scaled sum of raw values.
    for_each_case(43, |rng| {
        let reg = wodex::obs::MetricsRegistry::new();
        let h = reg.histogram_with("h_prop", "hist test", &[], &[10, 100, 1000, 10_000], 1.0);
        let n = rng.random_range(0..=200usize);
        let mut raw_sum = 0u64;
        for _ in 0..n {
            let v = rng.next_u64() % 20_000;
            raw_sum += v;
            h.observe(v);
        }
        let text = wodex::obs::render_prometheus(&reg);
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut count = None;
        let mut sum = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("h_prop_bucket{le=\"") {
                let (le, v) = rest.split_once("\"} ").expect("bucket line");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().expect("finite bound")
                };
                buckets.push((le, v.parse().expect("bucket count")));
            } else if let Some(v) = line.strip_prefix("h_prop_count ") {
                count = Some(v.parse::<u64>().expect("count"));
            } else if let Some(v) = line.strip_prefix("h_prop_sum ") {
                sum = Some(v.parse::<f64>().expect("sum"));
            }
        }
        assert_eq!(buckets.len(), 5, "4 bounds + +Inf");
        assert!(
            buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "bounds ascending"
        );
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "cumulative counts must be monotone: {buckets:?}"
        );
        assert_eq!(buckets.last().unwrap().1, n as u64, "+Inf covers all");
        assert_eq!(count, Some(n as u64));
        let sum = sum.expect("sum line");
        assert!(
            (sum - raw_sum as f64).abs() < 1e-6 * (1.0 + raw_sum as f64),
            "sum {sum} != {raw_sum}"
        );
    });
}
