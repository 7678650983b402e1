//! Turtle parsing and serialization (a practical subset).
//!
//! Turtle is the human-facing syntax of the Web of Data. The subset
//! implemented here covers what LOD dumps and the surveyed tools actually
//! exchange:
//!
//! * `@prefix` / `@base` directives (and SPARQL-style `PREFIX`/`BASE`),
//! * prefixed names (`foaf:name`) and IRI references (`<...>`),
//! * the `a` keyword for `rdf:type`,
//! * predicate lists (`;`) and object lists (`,`),
//! * blank node labels (`_:b`) and anonymous bnodes `[ ... ]`,
//! * quoted literals with `@lang` / `^^datatype`, plus bare numeric
//!   (`42`, `3.14`, `1e6`) and boolean (`true`/`false`) abbreviations.
//!
//! Collections `( ... )` are parsed into the standard `rdf:first/rdf:rest`
//! encoding. Multi-line `"""..."""` strings are supported.

use crate::error::RdfError;
use crate::graph::Graph;
use crate::lex::Cursor;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;
use crate::vocab::{rdf, xsd};
use std::collections::HashMap;

/// Parses a Turtle document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    Parser::new(input).parse_document()
}

struct Parser<'a> {
    cur: Cursor<'a>,
    prefixes: HashMap<&'a str, String>,
    base: String,
    graph: Graph,
    bnode_counter: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            cur: Cursor::new(input),
            prefixes: HashMap::new(),
            base: String::new(),
            graph: Graph::new(),
            bnode_counter: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        self.cur.error(msg).into()
    }

    fn parse_document(mut self) -> Result<Graph, RdfError> {
        loop {
            self.cur.skip_ws();
            if self.cur.eof() {
                return Ok(self.graph);
            }
            // `@prefix`/`@base` end with a '.', SPARQL-style `PREFIX`/`BASE`
            // do not; anything else unmarked is a statement.
            let marked = self.cur.eat(b'@');
            let statement_start = self.cur;
            match self.cur.pname() {
                (word, None) if word.eq_ignore_ascii_case("prefix") => self.directive_prefix()?,
                (word, None) if word.eq_ignore_ascii_case("base") => {
                    self.cur.skip_ws();
                    self.base = self.iri()?.as_str().to_string();
                }
                _ if marked => return Err(self.err("unknown directive")),
                _ => {
                    self.cur = statement_start;
                    self.statement()?;
                    continue;
                }
            }
            if marked {
                self.cur.skip_ws();
                self.cur.expect(".")?;
            }
        }
    }

    fn directive_prefix(&mut self) -> Result<(), RdfError> {
        self.cur.skip_ws();
        let (name, Some("")) = self.cur.pname() else {
            return Err(self.err("expected 'name:' in prefix directive"));
        };
        self.cur.skip_ws();
        let ns = self.iri()?;
        self.prefixes.insert(name, ns.as_str().to_string());
        Ok(())
    }

    fn statement(&mut self) -> Result<(), RdfError> {
        let subject = self.subject()?;
        self.predicate_object_list(&subject)?;
        self.cur.skip_ws();
        Ok(self.cur.expect(".")?)
    }

    fn predicate_object_list(&mut self, subject: &Term) -> Result<(), RdfError> {
        loop {
            let predicate = self.predicate()?;
            loop {
                let object = self.object()?;
                self.graph
                    .insert(Triple::new(subject.clone(), predicate.clone(), object));
                self.cur.skip_ws();
                if !self.cur.eat(b',') {
                    break;
                }
            }
            if !self.cur.eat(b';') {
                return Ok(());
            }
            self.cur.skip_ws();
            // Allow a dangling ';' before '.' or ']'.
            if matches!(self.cur.peek(), Some(b'.') | Some(b']') | None) {
                return Ok(());
            }
        }
    }

    fn subject(&mut self) -> Result<Term, RdfError> {
        self.cur.skip_ws();
        match self.cur.peek() {
            Some(b'<') => Ok(Term::Iri(self.iri()?)),
            Some(b'_') => Ok(Term::blank(self.cur.blank_node_label()?)),
            Some(b'[') => self.anon_bnode(),
            Some(b'(') => self.collection(),
            _ => {
                let name = self.cur.pname();
                Ok(Term::Iri(self.resolve(name)?))
            }
        }
    }

    fn predicate(&mut self) -> Result<Term, RdfError> {
        self.cur.skip_ws();
        if self.cur.peek() == Some(b'<') {
            return Ok(Term::Iri(self.iri()?));
        }
        match self.cur.pname() {
            ("a", None) => Ok(Term::iri(rdf::TYPE)),
            name => Ok(Term::Iri(self.resolve(name)?)),
        }
    }

    fn object(&mut self) -> Result<Term, RdfError> {
        self.cur.skip_ws();
        match self.cur.peek() {
            Some(b'<') => Ok(Term::Iri(self.iri()?)),
            Some(b'_') => Ok(Term::blank(self.cur.blank_node_label()?)),
            Some(b'[') => self.anon_bnode(),
            Some(b'(') => self.collection(),
            Some(b'"' | b'\'') => Ok(Term::Literal(self.literal()?)),
            Some(b'+' | b'-' | b'0'..=b'9') => {
                let (lexical, datatype) = self.cur.numeric_literal()?;
                if datatype != xsd::INTEGER {
                    return Ok(Term::Literal(Literal::typed(lexical, Iri::new(datatype))));
                }
                let v = lexical
                    .parse()
                    .map_err(|_| self.err("bad integer literal"))?;
                Ok(Term::integer(v))
            }
            _ => match self.cur.pname() {
                (word, None) if word.eq_ignore_ascii_case("true") => {
                    Ok(Term::Literal(Literal::boolean(true)))
                }
                (word, None) if word.eq_ignore_ascii_case("false") => {
                    Ok(Term::Literal(Literal::boolean(false)))
                }
                name => Ok(Term::Iri(self.resolve(name)?)),
            },
        }
    }

    fn fresh_bnode(&mut self) -> BlankNode {
        self.bnode_counter += 1;
        BlankNode::new(format!("genid{}", self.bnode_counter))
    }

    fn anon_bnode(&mut self) -> Result<Term, RdfError> {
        self.cur.expect("[")?;
        let node = Term::Blank(self.fresh_bnode());
        self.cur.skip_ws();
        if self.cur.eat(b']') {
            return Ok(node);
        }
        self.predicate_object_list(&node)?;
        self.cur.skip_ws();
        self.cur.expect("]")?;
        Ok(node)
    }

    fn collection(&mut self) -> Result<Term, RdfError> {
        self.cur.expect("(")?;
        let mut items = Vec::new();
        loop {
            self.cur.skip_ws();
            if self.cur.eat(b')') {
                break;
            }
            items.push(self.object()?);
        }
        if items.is_empty() {
            return Ok(Term::iri(rdf::NIL));
        }
        let mut head = Term::iri(rdf::NIL);
        for item in items.into_iter().rev() {
            let node = Term::Blank(self.fresh_bnode());
            self.graph
                .insert(Triple::new(node.clone(), Term::iri(rdf::FIRST), item));
            self.graph
                .insert(Triple::new(node.clone(), Term::iri(rdf::REST), head));
            head = node;
        }
        Ok(head)
    }

    /// An IRI reference, resolved against `@base` when relative (no scheme).
    fn iri(&mut self) -> Result<Iri, RdfError> {
        let s = self.cur.iri_ref()?;
        if !self.base.is_empty() && !s.contains("://") && !s.starts_with("urn:") {
            return Iri::parse(format!("{}{s}", self.base));
        }
        Iri::parse(s)
    }

    /// The IRI a prefixed name stands for.
    fn resolve(&self, (prefix, local): (&str, Option<&str>)) -> Result<Iri, RdfError> {
        let Some(local) = local else {
            return Err(self.err(format!("expected prefixed name, got {prefix:?}")));
        };
        let ns = self.prefixes.get(prefix);
        let ns = ns.ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))?;
        Iri::parse(format!("{ns}{local}"))
    }

    fn literal(&mut self) -> Result<Literal, RdfError> {
        let lexical = self.cur.string_literal()?;
        Ok(match self.cur.peek() {
            Some(b'@') => Literal::lang_string(lexical, self.cur.lang_tag()?),
            Some(b'^') => {
                self.cur.expect("^^")?;
                self.cur.skip_ws();
                if self.cur.peek() == Some(b'<') {
                    Literal::typed(lexical, self.iri()?)
                } else {
                    let name = self.cur.pname();
                    Literal::typed(lexical, self.resolve(name)?)
                }
            }
            _ => Literal::string(lexical),
        })
    }
}

/// Serializes a graph as Turtle, grouping by subject and abbreviating with
/// the [`crate::vocab::default_prefixes`] table plus any extra prefixes.
pub fn serialize(graph: &Graph) -> String {
    serialize_with_prefixes(graph, &[])
}

/// Serializes with additional `(prefix, namespace)` pairs.
pub fn serialize_with_prefixes(graph: &Graph, extra: &[(String, String)]) -> String {
    use std::fmt::Write;
    let mut prefixes: Vec<(String, String)> = crate::vocab::default_prefixes()
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    prefixes.extend(extra.iter().cloned());

    let abbrev = |iri: &str| -> String {
        for (p, ns) in &prefixes {
            if let Some(rest) = iri.strip_prefix(ns.as_str()) {
                if !rest.is_empty()
                    && rest
                        .chars()
                        .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
                {
                    return format!("{p}:{rest}");
                }
            }
        }
        format!("<{iri}>")
    };
    let term_str = |t: &Term| -> String {
        match t {
            Term::Iri(i) => {
                if i.as_str() == rdf::TYPE {
                    "a".to_string()
                } else {
                    abbrev(i.as_str())
                }
            }
            Term::Blank(b) => format!("_:{}", b.label()),
            Term::Literal(l) => {
                let mut s = format!("\"{}\"", crate::term::escape_literal(l.lexical()));
                if let Some(lang) = l.lang() {
                    s.push('@');
                    s.push_str(lang);
                } else if let Some(dt) = l.datatype() {
                    if dt.as_str() != xsd::STRING {
                        s.push_str("^^");
                        s.push_str(&abbrev(dt.as_str()));
                    }
                }
                s
            }
        }
    };

    // Emit only the prefixes that are actually used.
    let body = {
        let mut body = String::new();
        let mut current_subject: Option<&Term> = None;
        for t in graph.iter() {
            if current_subject == Some(&t.subject) {
                let _ = write!(
                    body,
                    " ;\n    {} {}",
                    term_str(&t.predicate),
                    term_str(&t.object)
                );
            } else {
                if current_subject.is_some() {
                    body.push_str(" .\n");
                }
                let _ = write!(
                    body,
                    "{} {} {}",
                    term_str(&t.subject),
                    term_str(&t.predicate),
                    term_str(&t.object)
                );
                current_subject = Some(&t.subject);
            }
        }
        if current_subject.is_some() {
            body.push_str(" .\n");
        }
        body
    };
    let mut out = String::new();
    for (p, ns) in &prefixes {
        if body.contains(&format!("{p}:")) {
            let _ = writeln!(out, "@prefix {p}: <{ns}> .");
        }
    }
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(&body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{foaf, rdfs};

    #[test]
    fn parse_prefixes_and_a() {
        let doc = r#"
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://e.org/> .
ex:alice a foaf:Person ;
    foaf:name "Alice" ;
    foaf:knows ex:bob, ex:carol .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 4);
        let alice = Term::iri("http://e.org/alice");
        assert_eq!(g.types_of(&alice).len(), 1);
        assert_eq!(g.triples_for_predicate(foaf::KNOWS).count(), 2);
    }

    #[test]
    fn parse_numeric_and_boolean_abbreviations() {
        let doc = r#"
@prefix ex: <http://e.org/> .
ex:x ex:i 42 ; ex:d 3.25 ; ex:e 1.5e3 ; ex:t true ; ex:f false ; ex:n -7 .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 6);
        let vals: Vec<_> = g
            .iter()
            .filter_map(|t| t.object.as_literal())
            .map(crate::Value::from_literal)
            .collect();
        assert!(vals.contains(&crate::Value::Integer(42)));
        assert!(vals.contains(&crate::Value::Integer(-7)));
        assert!(vals.contains(&crate::Value::Double(3.25)));
        assert!(vals.contains(&crate::Value::Double(1500.0)));
        assert!(vals.contains(&crate::Value::Boolean(true)));
        assert!(vals.contains(&crate::Value::Boolean(false)));
    }

    #[test]
    fn parse_anon_bnodes() {
        let doc = r#"
@prefix ex: <http://e.org/> .
ex:s ex:p [ ex:q "inner" ] .
[] ex:standalone "x" .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.iter().any(|t| t.object.is_blank()));
    }

    #[test]
    fn parse_collections() {
        let doc = r#"
@prefix ex: <http://e.org/> .
ex:s ex:list (1 2 3) .
ex:s ex:empty () .
"#;
        let g = parse(doc).unwrap();
        // list: 1 head triple + 3*(first,rest); empty: 1 triple to rdf:nil.
        assert_eq!(g.triples_for_predicate(rdf::FIRST).count(), 3);
        assert_eq!(g.triples_for_predicate(rdf::REST).count(), 3);
        assert!(g
            .iter()
            .any(|t| t.object == Term::iri(rdf::NIL)
                && t.predicate == Term::iri("http://e.org/empty")));
    }

    #[test]
    fn parse_typed_literals_with_prefixed_datatype() {
        let doc = r#"
@prefix ex: <http://e.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p "2016-03-15"^^xsd:date .
"#;
        let g = parse(doc).unwrap();
        let lit = g.iter().next().unwrap().object.as_literal().unwrap();
        assert_eq!(lit.datatype().unwrap().as_str(), xsd::DATE);
    }

    #[test]
    fn parse_long_strings() {
        let doc =
            "@prefix ex: <http://e.org/> .\nex:s ex:p \"\"\"multi\nline \"quoted\" text\"\"\" .\n";
        let g = parse(doc).unwrap();
        let lit = g.iter().next().unwrap().object.as_literal().unwrap();
        assert!(lit.lexical().contains("multi\nline"));
        assert!(lit.lexical().contains("\"quoted\""));
    }

    #[test]
    fn parse_base_resolution() {
        let doc = "@base <http://e.org/> .\n<s> <p> <o> .\n";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::iri("http://e.org/s"));
    }

    #[test]
    fn unknown_prefix_errors() {
        let doc = "ex:s ex:p ex:o .\n";
        assert!(matches!(parse(doc), Err(RdfError::UnknownPrefix(_))));
    }

    #[test]
    fn sparql_style_directives() {
        let doc = "PREFIX ex: <http://e.org/>\nex:s ex:p ex:o .\n";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    /// Non-ASCII IRIs, blank labels and prefixed-name locals are the code
    /// points written: a plain N-Triples line reads the same in both parsers.
    #[test]
    fn non_ascii_names_agree_with_ntriples() {
        let line = "<http://ex.org/café> <http://ex.org/naïve> _:b火 .\n";
        let g = parse(line).unwrap();
        assert_eq!(g, crate::ntriples::parse(line).unwrap());
        assert_eq!(
            g.iter().next().unwrap().subject,
            Term::iri("http://ex.org/café")
        );
        let abbreviated = "@prefix ex: <http://ex.org/> .\nex:café ex:naïve _:b火 .\n";
        assert_eq!(parse(abbreviated).unwrap(), g);
    }

    #[test]
    fn an_empty_language_tag_is_a_syntax_error() {
        let doc = "<http://e.org/s> <http://e.org/p> \"x\"@ .\n";
        assert!(matches!(parse(doc), Err(RdfError::Syntax { line: 1, .. })));
        assert!(crate::ntriples::parse(doc).is_err());
    }

    #[test]
    fn serialize_groups_subjects_and_roundtrips() {
        let mut g = Graph::new();
        g.insert(Triple::iri(
            "http://e.org/a",
            rdf::TYPE,
            Term::iri(foaf::PERSON),
        ));
        g.insert(Triple::iri(
            "http://e.org/a",
            rdfs::LABEL,
            Term::literal("A"),
        ));
        g.insert(Triple::iri(
            "http://e.org/a",
            foaf::NAME,
            Term::Literal(Literal::lang_string("Ah", "en")),
        ));
        g.insert(Triple::iri(
            "http://e.org/b",
            "http://e.org/score",
            Term::integer(9),
        ));
        let ttl = serialize(&g);
        assert!(ttl.contains("@prefix foaf:"));
        assert!(ttl.contains(" a foaf:Person"));
        assert!(ttl.contains(";"));
        let g2 = parse(&ttl).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn serialize_unicode_literal_roundtrips() {
        let mut g = Graph::new();
        g.insert(Triple::iri(
            "http://e.org/a",
            rdfs::LABEL,
            Term::literal("Αθήνα — ελληνικά"),
        ));
        let ttl = serialize(&g);
        let g2 = parse(&ttl).unwrap();
        assert_eq!(g, g2);
    }
}
