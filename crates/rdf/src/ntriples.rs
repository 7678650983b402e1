//! N-Triples parsing and serialization.
//!
//! N-Triples is the line-oriented exchange format of the Web of Data: one
//! triple per line, full IRIs, no abbreviations. Because it is line-based it
//! is also the format of choice for *streaming* ingestion — the dynamic
//! setting of §2 where "a preprocessing phase is prevented" — so the parser
//! here exposes both a whole-document API and a per-line API usable on a
//! stream.

use crate::error::RdfError;
use crate::graph::Graph;
use crate::lex::Cursor;
use crate::term::{Iri, Literal, Term};
use crate::triple::Triple;

/// Parses a complete N-Triples document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    let mut g = Graph::new();
    for (i, line) in input.lines().enumerate() {
        if let Some(t) = parse_line(line, i + 1)? {
            g.insert(t);
        }
    }
    Ok(g)
}

/// Parses a single N-Triples line. Returns `Ok(None)` for blank lines and
/// comments; errors carry the supplied 1-based `line_no`.
pub fn parse_line(line: &str, line_no: usize) -> Result<Option<Triple>, RdfError> {
    triple(&mut Cursor::new(line)).map_err(|e| match e {
        RdfError::Syntax { message, .. } => RdfError::syntax(line_no, message),
        other => other,
    })
}

/// Parses a single standalone term in N-Triples syntax (`<iri>`,
/// `_:label`, or a literal with optional `@lang` / `^^<dt>` suffix).
///
/// This is the wire syntax the sharded-serving protocol uses for pattern
/// constants: one term per query parameter, rendered exactly as
/// [`Term`]'s `Display` form, so `parse_term(t.to_string()) == t` for
/// every term the workspace produces.
pub fn parse_term(input: &str) -> Result<Term, RdfError> {
    let mut cur = Cursor::new(input);
    skip_blanks(&mut cur);
    let term = term(&mut cur)?;
    skip_blanks(&mut cur);
    if !cur.eof() {
        return Err(cur.error("trailing content after term").into());
    }
    Ok(term)
}

/// Serializes a graph as an N-Triples document (sorted, one triple per
/// line, trailing newline).
pub fn serialize(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.iter() {
        serialize_triple(t, &mut out);
    }
    out
}

/// Appends one triple in N-Triples syntax (with trailing newline).
pub fn serialize_triple(t: &Triple, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(out, "{} {} {} .", t.subject, t.predicate, t.object);
}

/// Within a line only spaces and tabs separate terms.
fn skip_blanks(cur: &mut Cursor) {
    cur.take_while(|c| c == ' ' || c == '\t');
}

fn triple(cur: &mut Cursor) -> Result<Option<Triple>, RdfError> {
    skip_blanks(cur);
    if cur.eof() || cur.peek() == Some(b'#') {
        return Ok(None);
    }
    let subject = term(cur)?;
    if !subject.is_resource() {
        return Err(cur.error("literal in subject position").into());
    }
    skip_blanks(cur);
    let predicate = term(cur)?;
    if !predicate.is_iri() {
        return Err(cur.error("predicate must be an IRI").into());
    }
    skip_blanks(cur);
    let object = term(cur)?;
    skip_blanks(cur);
    cur.expect(".")?;
    skip_blanks(cur);
    if !cur.eof() && cur.peek() != Some(b'#') {
        return Err(cur.error("trailing content after '.'").into());
    }
    Ok(Some(Triple::new(subject, predicate, object)))
}

/// One term: the productions N-Triples has, and no others — no prefixed
/// name, no number or boolean abbreviation, no `'…'` or long string.
fn term(cur: &mut Cursor) -> Result<Term, RdfError> {
    match cur.peek() {
        Some(b'<') => Ok(Term::Iri(Iri::parse(cur.iri_ref()?)?)),
        Some(b'_') => Ok(Term::blank(cur.blank_node_label()?)),
        Some(b'"') => {
            let lexical = cur.short_string()?;
            Ok(Term::Literal(match cur.peek() {
                Some(b'@') => Literal::lang_string(lexical, cur.lang_tag()?),
                Some(b'^') => {
                    cur.expect("^^")?;
                    Literal::typed(lexical, Iri::parse(cur.iri_ref()?)?)
                }
                _ => Literal::string(lexical),
            }))
        }
        Some(_) => Err(cur.error("unexpected character starting a term").into()),
        None => Err(cur.error("unexpected end of line").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::BlankNode;
    use crate::vocab::xsd;

    #[test]
    fn parse_simple_triple() {
        let g = parse("<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n").unwrap();
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::iri("http://e.org/s"));
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let doc = "# a comment\n\n<http://e.org/s> <http://e.org/p> \"x\" .\n   # indented\n";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let doc = concat!(
            "<http://e.org/s> <http://e.org/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://e.org/s> <http://e.org/q> \"hallo\"@de .\n",
        );
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 2);
        let lits: Vec<_> = g.iter().filter_map(|t| t.object.as_literal()).collect();
        assert!(lits
            .iter()
            .any(|l| l.datatype().is_some_and(|d| d.as_str() == xsd::INTEGER)));
        assert!(lits.iter().any(|l| l.lang() == Some("de")));
    }

    #[test]
    fn parse_blank_nodes() {
        let doc = "_:a <http://e.org/p> _:b .\n";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert!(t.subject.is_blank());
        assert!(t.object.is_blank());
    }

    #[test]
    fn parse_escapes_in_literals() {
        let doc = "<http://e.org/s> <http://e.org/p> \"line\\nbreak \\\"q\\\"\" .\n";
        let g = parse(doc).unwrap();
        let lit = g.iter().next().unwrap().object.as_literal().unwrap();
        assert_eq!(lit.lexical(), "line\nbreak \"q\"");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse("<http://e.org/s> <http://e.org/p> .\n").is_err());
        assert!(parse("\"lit\" <http://e.org/p> <http://e.org/o> .\n").is_err());
        assert!(parse("<http://e.org/s> _:b <http://e.org/o> .\n").is_err());
        assert!(parse("<http://e.org/s> <http://e.org/p> <http://e.org/o>\n").is_err());
        assert!(parse("<http://e.org/s> <http://e.org/p> <http://e.org/o> . junk\n").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let doc = "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\nbad line\n";
        match parse(doc) {
            Err(RdfError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn parse_term_roundtrips_every_kind() {
        let terms = [
            Term::iri("http://e.org/s"),
            Term::Blank(BlankNode::new("b0")),
            Term::Literal(Literal::string("plain \"quoted\"\n")),
            Term::Literal(Literal::lang_string("hi", "en")),
            Term::Literal(Literal::typed("42", Iri::new(xsd::INTEGER))),
        ];
        for t in terms {
            assert_eq!(parse_term(&t.to_string()).unwrap(), t, "{t}");
        }
        assert!(parse_term("<http://e.org/a> extra").is_err());
        assert!(parse_term("").is_err());
    }

    #[test]
    fn roundtrip_serialize_parse() {
        let doc = concat!(
            "_:b0 <http://e.org/p> \"x\\ty\" .\n",
            "<http://e.org/s> <http://e.org/p> \"3.5\"^^<http://www.w3.org/2001/XMLSchema#double> .\n",
            "<http://e.org/s> <http://e.org/q> \"hi\"@en .\n",
        );
        let g = parse(doc).unwrap();
        let out = serialize(&g);
        let g2 = parse(&out).unwrap();
        assert_eq!(g, g2);
    }
}
