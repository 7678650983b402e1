//! The SPARQL-subset parser: a hand-written tokenizer + recursive descent.

use crate::ast::*;
use std::borrow::Cow;
use std::collections::HashMap;
use wodex_rdf::lex::{Cursor, LexError};
use wodex_rdf::term::Literal;
use wodex_rdf::vocab::rdf;
use wodex_rdf::{Iri, Term};

/// A parse error with a message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// A token: slices of the query text, positioned by the shared term
/// lexer ([`wodex_rdf::lex`]).
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Iri(&'a str),
    PName(&'a str, &'a str),
    Var(&'a str),
    /// Lexical form, language tag, datatype.
    Str(Cow<'a, str>, Option<&'a str>, Option<Datatype<'a>>),
    /// Lexical form and datatype IRI.
    Num(&'a str, &'static str),
    /// Keywords and `a`.
    Ident(&'a str),
    Punct(&'static str),
}

/// How a literal's `^^` datatype was written.
#[derive(Debug, Clone, PartialEq)]
enum Datatype<'a> {
    Iri(&'a str),
    PName(&'a str, &'a str),
}

/// True if the `<` that `rest` starts with opens an IRI (a `>` occurs
/// before any whitespace) rather than a comparison.
fn lt_is_iri(rest: &str) -> bool {
    let stop = rest.bytes().find(|b| *b == b'>' || b.is_ascii_whitespace());
    stop == Some(b'>')
}

/// Operators and punctuation, each before any prefix of itself.
const PUNCT: [&str; 17] = [
    "{", "}", "(", ")", ".", ";", ",", "*", "=", "!=", "!", "<=", "<", ">=", ">", "&&", "||",
];

fn unexpected(cur: &Cursor) -> ParseError {
    let c = cur.rest().chars().next().unwrap_or_default();
    cur.error(format!("unexpected character {c:?}")).into()
}

fn next_tok<'a>(cur: &mut Cursor<'a>) -> Result<Option<(Tok<'a>, usize)>, ParseError> {
    cur.skip_ws();
    let start = cur.pos();
    let Some(c) = cur.peek() else {
        return Ok(None);
    };
    let tok = match c {
        b'<' if lt_is_iri(cur.rest()) => Tok::Iri(cur.iri_ref()?),
        b'?' | b'$' => {
            cur.eat(c);
            let name = cur.take_while(|ch| ch.is_ascii_alphanumeric() || ch == '_');
            if name.is_empty() {
                return Err(cur.error("empty variable name").into());
            }
            Tok::Var(name)
        }
        b'"' | b'\'' => {
            let lexical = cur.string_literal()?;
            match cur.peek() {
                Some(b'@') => Tok::Str(lexical, Some(cur.lang_tag()?), None),
                Some(b'^') => {
                    cur.expect("^^")?;
                    let datatype = if cur.peek() == Some(b'<') {
                        Datatype::Iri(cur.iri_ref()?)
                    } else {
                        let at = cur.pos();
                        let (prefix, Some(local)) = cur.pname() else {
                            return Err(cur.error_at(at, "bad datatype after '^^'").into());
                        };
                        Datatype::PName(prefix, local)
                    };
                    Tok::Str(lexical, None, Some(datatype))
                }
                _ => Tok::Str(lexical, None, None),
            }
        }
        b'0'..=b'9' | b'+' | b'-' => {
            let (lexical, datatype) = cur.numeric_literal()?;
            Tok::Num(lexical, datatype)
        }
        _ if c.is_ascii_alphabetic() || c == b'_' || !c.is_ascii() => match cur.pname() {
            (prefix, Some(local)) => Tok::PName(prefix, local),
            ("", None) => return Err(unexpected(cur)),
            (word, None) => Tok::Ident(word),
        },
        _ => {
            let found = PUNCT.iter().find(|p| cur.rest().starts_with(**p));
            let p = found.ok_or_else(|| unexpected(cur))?;
            cur.expect(p)?;
            Tok::Punct(p)
        }
    };
    Ok(Some((tok, start)))
}

/// Parses a query string.
pub fn parse_query(text: &str) -> Result<Query, ParseError> {
    let mut cur = Cursor::new(text);
    let mut toks = Vec::new();
    while let Some(t) = next_tok(&mut cur)? {
        toks.push(t);
    }
    Parser {
        toks,
        pos: 0,
        end: text.len(),
        prefixes: HashMap::new(),
    }
    .parse()
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
    /// The query's length: where an error at end of input points.
    end: usize,
    prefixes: HashMap<&'a str, &'a str>,
}

impl<'a> Parser<'a> {
    /// An error at the next token (at end of input: at its length).
    fn error(&self, msg: impl Into<String>) -> ParseError {
        self.error_at(self.pos, msg)
    }

    /// An error at token `index`.
    fn error_at(&self, index: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            offset: self.toks.get(index).map_or(self.end, |t| t.1),
        }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos).map(|t| &t.0)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.pos).map(|t| t.0.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(x)) if *x == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn parse(mut self) -> Result<Query, ParseError> {
        // Prologue.
        while self.eat_kw("PREFIX") {
            let (name, iri) = match (self.bump(), self.bump()) {
                (Some(Tok::PName(p, "")), Some(Tok::Iri(iri))) => (p, iri),
                other => return Err(self.error(format!("bad PREFIX declaration: {other:?}"))),
            };
            self.prefixes.insert(name, iri);
        }
        // Form.
        let form = if self.eat_kw("SELECT") {
            let distinct = self.eat_kw("DISTINCT");
            let mut projections = Vec::new();
            if !self.eat_punct("*") {
                loop {
                    match self.peek() {
                        Some(Tok::Var(_)) => {
                            if let Some(Tok::Var(v)) = self.bump() {
                                projections.push(Projection::Var(v.to_string()));
                            }
                        }
                        Some(Tok::Punct("(")) => {
                            self.bump();
                            let agg = self.parse_aggregate()?;
                            self.expect_kw("AS")?;
                            let alias = match self.bump() {
                                Some(Tok::Var(v)) => v.to_string(),
                                other => {
                                    return Err(
                                        self.error(format!("expected ?alias, got {other:?}"))
                                    )
                                }
                            };
                            self.expect_punct(")")?;
                            projections.push(Projection::Aggregate(agg, alias));
                        }
                        _ => break,
                    }
                }
                if projections.is_empty() {
                    return Err(self.error("SELECT needs * or at least one projection"));
                }
            }
            QueryForm::Select {
                projections,
                distinct,
            }
        } else if self.eat_kw("ASK") {
            QueryForm::Ask
        } else if self.eat_kw("DESCRIBE") {
            let mut resources = Vec::new();
            loop {
                match self.peek() {
                    Some(Tok::Iri(_)) => {
                        if let Some(Tok::Iri(iri)) = self.bump() {
                            resources.push(Term::iri(iri));
                        }
                    }
                    Some(Tok::PName(_, _)) => {
                        if let Some(Tok::PName(pfx, local)) = self.bump() {
                            resources.push(Term::Iri(self.resolve_pname(pfx, local)?));
                        }
                    }
                    _ => break,
                }
            }
            if resources.is_empty() {
                return Err(self.error("DESCRIBE needs at least one IRI"));
            }
            if self.peek().is_some() {
                return Err(self.error("DESCRIBE takes only resource IRIs"));
            }
            return Ok(Query {
                form: QueryForm::Describe(resources),
                patterns: Vec::new(),
                optionals: Vec::new(),
                unions: Vec::new(),
                filters: Vec::new(),
                group_by: Vec::new(),
                order_by: Vec::new(),
                limit: None,
                offset: 0,
            });
        } else {
            return Err(self.error("expected SELECT, ASK or DESCRIBE"));
        };
        // WHERE { ... }
        self.eat_kw("WHERE");
        self.expect_punct("{")?;
        let mut patterns = Vec::new();
        let mut optionals = Vec::new();
        let mut unions = Vec::new();
        let mut filters = Vec::new();
        while !self.eat_punct("}") {
            if self.eat_kw("FILTER") {
                self.expect_punct("(")?;
                filters.push(self.parse_expr()?);
                self.expect_punct(")")?;
                self.eat_punct(".");
                continue;
            }
            if self.eat_kw("OPTIONAL") {
                optionals.push(self.parse_bgp_block()?);
                self.eat_punct(".");
                continue;
            }
            if matches!(self.peek(), Some(Tok::Punct("{"))) {
                // { A } UNION { B } [UNION { C } ...]
                let mut alts = vec![self.parse_bgp_block()?];
                while self.eat_kw("UNION") {
                    alts.push(self.parse_bgp_block()?);
                }
                if alts.len() < 2 {
                    return Err(self.error("a group pattern must be followed by UNION"));
                }
                unions.push(alts);
                self.eat_punct(".");
                continue;
            }
            // Triple (with ; and , continuation).
            let s = self.parse_term_or_var(true)?;
            loop {
                let p = self.parse_term_or_var(true)?;
                loop {
                    let o = self.parse_term_or_var(false)?;
                    patterns.push(TriplePattern {
                        s: s.clone(),
                        p: p.clone(),
                        o,
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                if !self.eat_punct(";") {
                    break;
                }
                // A dangling ';' before '.' or '}'.
                if matches!(self.peek(), Some(Tok::Punct(".")) | Some(Tok::Punct("}"))) {
                    break;
                }
            }
            self.eat_punct(".");
        }
        // Modifiers.
        let mut group_by = Vec::new();
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = 0;
        loop {
            if self.eat_kw("GROUP") {
                self.expect_kw("BY")?;
                while let Some(Tok::Var(_)) = self.peek() {
                    if let Some(Tok::Var(v)) = self.bump() {
                        group_by.push(v.to_string());
                    }
                }
                if group_by.is_empty() {
                    return Err(self.error("GROUP BY needs at least one variable"));
                }
            } else if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                loop {
                    if self.eat_kw("ASC") || self.eat_kw("DESC") {
                        let dir = if matches!(self.toks[self.pos - 1].0, Tok::Ident(s) if s.eq_ignore_ascii_case("DESC"))
                        {
                            SortDir::Desc
                        } else {
                            SortDir::Asc
                        };
                        self.expect_punct("(")?;
                        match self.bump() {
                            Some(Tok::Var(v)) => order_by.push((v.to_string(), dir)),
                            other => {
                                return Err(self.error(format!("expected ?var, got {other:?}")))
                            }
                        }
                        self.expect_punct(")")?;
                    } else if let Some(Tok::Var(_)) = self.peek() {
                        if let Some(Tok::Var(v)) = self.bump() {
                            order_by.push((v.to_string(), SortDir::Asc));
                        }
                    } else {
                        break;
                    }
                }
                if order_by.is_empty() {
                    return Err(self.error("ORDER BY needs at least one key"));
                }
            } else if self.eat_kw("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if self.eat_kw("OFFSET") {
                offset = self.parse_usize()?;
            } else {
                break;
            }
        }
        if self.peek().is_some() {
            return Err(self.error(format!("trailing tokens: {:?}", self.peek())));
        }
        Ok(Query {
            form,
            patterns,
            optionals,
            unions,
            filters,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    /// Parses a braced BGP block `{ triples }` (used by OPTIONAL/UNION;
    /// no nested groups or filters inside).
    fn parse_bgp_block(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        self.expect_punct("{")?;
        let mut patterns = Vec::new();
        while !self.eat_punct("}") {
            let s = self.parse_term_or_var(true)?;
            loop {
                let p = self.parse_term_or_var(true)?;
                loop {
                    let o = self.parse_term_or_var(false)?;
                    patterns.push(TriplePattern {
                        s: s.clone(),
                        p: p.clone(),
                        o,
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                if !self.eat_punct(";") {
                    break;
                }
                if matches!(self.peek(), Some(Tok::Punct(".")) | Some(Tok::Punct("}"))) {
                    break;
                }
            }
            self.eat_punct(".");
        }
        Ok(patterns)
    }

    fn parse_usize(&mut self) -> Result<usize, ParseError> {
        match self.bump() {
            Some(Tok::Num(s, _)) => s
                .parse()
                .map_err(|_| self.error(format!("bad number {s:?}"))),
            other => Err(self.error(format!("expected number, got {other:?}"))),
        }
    }

    fn parse_aggregate(&mut self) -> Result<Aggregate, ParseError> {
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s.to_ascii_uppercase(),
            other => return Err(self.error(format!("expected aggregate, got {other:?}"))),
        };
        self.expect_punct("(")?;
        let agg = match name.as_str() {
            "COUNT" => {
                if self.eat_punct("*") {
                    Aggregate::Count(None)
                } else {
                    Aggregate::Count(Some(self.parse_var()?))
                }
            }
            "SUM" => Aggregate::Sum(self.parse_var()?),
            "AVG" => Aggregate::Avg(self.parse_var()?),
            "MIN" => Aggregate::Min(self.parse_var()?),
            "MAX" => Aggregate::Max(self.parse_var()?),
            other => return Err(self.error(format!("unknown aggregate {other}"))),
        };
        self.expect_punct(")")?;
        Ok(agg)
    }

    fn parse_var(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Var(v)) => Ok(v.to_string()),
            other => Err(self.error(format!("expected variable, got {other:?}"))),
        }
    }

    /// The IRI of the prefixed name in the token just consumed.
    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<Iri, ParseError> {
        let ns = self.prefixes.get(prefix);
        let ns =
            ns.ok_or_else(|| self.error_at(self.pos - 1, format!("unknown prefix {prefix:?}")))?;
        Ok(Iri::new(format!("{ns}{local}")))
    }

    /// The literal of the string token just consumed.
    fn literal(
        &self,
        lexical: Cow<str>,
        lang: Option<&str>,
        datatype: Option<Datatype>,
    ) -> Result<Term, ParseError> {
        Ok(Term::Literal(match (lang, datatype) {
            (Some(lang), _) => Literal::lang_string(lexical, lang),
            (None, Some(Datatype::Iri(iri))) => Literal::typed(lexical, Iri::new(iri)),
            (None, Some(Datatype::PName(prefix, local))) => {
                Literal::typed(lexical, self.resolve_pname(prefix, local)?)
            }
            (None, None) => Literal::string(lexical),
        }))
    }

    fn parse_term_or_var(&mut self, _subject_position: bool) -> Result<TermOrVar, ParseError> {
        match self.bump() {
            Some(Tok::Var(v)) => Ok(TermOrVar::Var(v.to_string())),
            Some(Tok::Iri(iri)) => Ok(TermOrVar::Term(Term::iri(iri))),
            Some(Tok::PName(p, l)) => Ok(TermOrVar::Term(Term::Iri(self.resolve_pname(p, l)?))),
            Some(Tok::Ident("a")) => Ok(TermOrVar::Term(Term::iri(rdf::TYPE))),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => {
                Ok(TermOrVar::Term(Term::Literal(Literal::boolean(true))))
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => {
                Ok(TermOrVar::Term(Term::Literal(Literal::boolean(false))))
            }
            Some(Tok::Str(lex, lang, dt)) => Ok(TermOrVar::Term(self.literal(lex, lang, dt)?)),
            Some(Tok::Num(s, dt)) => Ok(TermOrVar::Term(Term::Literal(Literal::typed(
                s,
                Iri::new(dt),
            )))),
            other => Err(self.error(format!("expected term or variable, got {other:?}"))),
        }
    }

    // ----- expressions -----

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_punct("||") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        while self.eat_punct("&&") {
            let right = self.parse_unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!") {
            return Ok(Expr::Not(Box::new(self.parse_unary()?)));
        }
        self.parse_relational()
    }

    fn parse_relational(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_primary()?;
        let op = match self.peek() {
            Some(Tok::Punct("=")) => Some(CompareOp::Eq),
            Some(Tok::Punct("!=")) => Some(CompareOp::Ne),
            Some(Tok::Punct("<")) => Some(CompareOp::Lt),
            Some(Tok::Punct("<=")) => Some(CompareOp::Le),
            Some(Tok::Punct(">")) => Some(CompareOp::Gt),
            Some(Tok::Punct(">=")) => Some(CompareOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_primary()?;
            Ok(Expr::Compare(Box::new(left), op, Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Punct("(")) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Var(_)) => {
                if let Some(Tok::Var(v)) = self.bump() {
                    Ok(Expr::Var(v.to_string()))
                } else {
                    unreachable!()
                }
            }
            Some(Tok::Num(s, dt)) => {
                self.bump();
                Ok(Expr::Const(Term::Literal(Literal::typed(s, Iri::new(dt)))))
            }
            Some(Tok::Str(lex, lang, dt)) => {
                self.bump();
                Ok(Expr::Const(self.literal(lex, lang, dt)?))
            }
            Some(Tok::Iri(iri)) => {
                self.bump();
                Ok(Expr::Const(Term::iri(iri)))
            }
            Some(Tok::PName(p, l)) => {
                self.bump();
                Ok(Expr::Const(Term::Iri(self.resolve_pname(p, l)?)))
            }
            Some(Tok::Ident(name)) => {
                self.bump();
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "TRUE" => return Ok(Expr::Const(Term::Literal(Literal::boolean(true)))),
                    "FALSE" => return Ok(Expr::Const(Term::Literal(Literal::boolean(false)))),
                    _ => {}
                }
                self.expect_punct("(")?;
                let e = match upper.as_str() {
                    "BOUND" => Expr::Bound(self.parse_var()?),
                    "CONTAINS" => {
                        let a = self.parse_expr()?;
                        self.expect_punct(",")?;
                        let b = self.parse_expr()?;
                        Expr::Contains(Box::new(a), Box::new(b))
                    }
                    "STRSTARTS" => {
                        let a = self.parse_expr()?;
                        self.expect_punct(",")?;
                        let b = self.parse_expr()?;
                        Expr::StrStarts(Box::new(a), Box::new(b))
                    }
                    "LANG" => Expr::Lang(Box::new(self.parse_expr()?)),
                    "STR" => Expr::Str(Box::new(self.parse_expr()?)),
                    "ISIRI" | "ISURI" => Expr::IsIri(Box::new(self.parse_expr()?)),
                    "ISLITERAL" => Expr::IsLiteral(Box::new(self.parse_expr()?)),
                    other => return Err(self.error(format!("unknown function {other}"))),
                };
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(self.error(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::xsd;

    #[test]
    fn parse_minimal_select() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o }").unwrap();
        assert!(
            matches!(q.form, QueryForm::Select { ref projections, .. } if projections.is_empty())
        );
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn parse_prefixes_and_a() {
        let q = parse_query(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?n WHERE { ?x a foaf:Person . ?x foaf:name ?n }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.patterns[0].p, TermOrVar::Term(Term::iri(rdf::TYPE)));
        assert_eq!(
            q.patterns[1].p,
            TermOrVar::Term(Term::iri("http://xmlns.com/foaf/0.1/name"))
        );
    }

    /// One numeric rule with Turtle: the same digits are the same term,
    /// so a constant finds what a Turtle document loaded.
    #[test]
    fn numeric_constants_take_the_turtle_datatypes() {
        let q = parse_query("SELECT ?s WHERE { ?s <http://e.org/p> 1.5, 7, -2e3 }").unwrap();
        let objects: Vec<_> = q.patterns.iter().map(|p| p.o.clone()).collect();
        let typed = |lex: &str, dt: &str| TermOrVar::Term(Literal::typed(lex, Iri::new(dt)).into());
        assert_eq!(
            objects,
            [
                typed("1.5", xsd::DECIMAL),
                typed("7", xsd::INTEGER),
                typed("-2e3", xsd::DOUBLE)
            ]
        );
        let doc = "<http://e.org/s> <http://e.org/p> 1.5, 7, -2e3 .";
        let store = wodex_store::TripleStore::from_graph(&wodex_rdf::turtle::parse(doc).unwrap());
        for constant in ["1.5", "7", "-2e3"] {
            let text = format!("SELECT ?s WHERE {{ ?s <http://e.org/p> {constant} }}");
            match crate::query(&store, &text).unwrap() {
                crate::QueryResult::Solutions(t) => assert_eq!(t.rows.len(), 1, "{constant}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn non_ascii_and_escaped_constants_are_the_terms_written() {
        let q = parse_query(
            "PREFIX ex: <http://e.org/>\n\
             SELECT * WHERE { <http://e.org/café> ex:naïve \"caf\\u00E9 \\\"火\\\" \\\\ \\U0001F600\"@fr . \
             ?s ?p 'it\\'s ☂' FILTER(CONTAINS(?o, \"é\")) }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].s,
            TermOrVar::Term(Term::iri("http://e.org/café"))
        );
        assert_eq!(
            q.patterns[0].p,
            TermOrVar::Term(Term::iri("http://e.org/naïve"))
        );
        assert_eq!(
            q.patterns[0].o,
            TermOrVar::Term(Literal::lang_string("café \"火\" \\ 😀", "fr").into())
        );
        assert_eq!(q.patterns[1].o, TermOrVar::Term(Term::literal("it's ☂")));
        match &q.filters[0] {
            Expr::Contains(_, needle) => assert_eq!(**needle, Expr::Const(Term::literal("é"))),
            other => panic!("{other:?}"),
        }
    }

    /// Truncated and malformed input fails at a byte of the input (or its
    /// length, at end of input) — never accepted, never past the end. Each
    /// row marks the expected offset with `¦`.
    #[test]
    fn errors_point_at_the_offending_byte() {
        for marked in [
            "SELECT * WHERE { ?s ?p \"x\"¦^",
            "SELECT * WHERE { ?s ?p \"x\"^^¦",
            "SELECT * WHERE { ?s ?p \"x\"^^<http://unterminated¦",
            "SELECT * WHERE { ?s ?p \"x\"^^<http://a¦ b> }",
            "SELECT * WHERE { ?s ?p \"x\"^^¦nocolon }",
            "SELECT * WHERE { ?s ?p \"x\"@¦ }",
            "SELECT * WHERE { ?s ?p \"x¦",
            "SELECT * WHERE { ?s ?p \"x¦\\",
            "SELECT * WHERE { ?s ?p ¦\"x\\q\" }",
            "SELECT * WHERE { ?s ?p ¦\"x\"^^xsd:date }", // unknown prefix: the token
            "SELECT * WHERE { ?s ¦ex:p ?o }",
            "SELECT * WHERE { ?s <http:¦//e.org/p", // no '>': a less-than, then a name
            "SELECT * WHERE { ?s ?p ?o FILTER(?o ¦& ?s) }",
            "SELECT * WHERE { ?s ?p ?o FILTER(?o ¦|",
            "SELECT * WHERE { ?s ?p ?o FILTER(?o > -¦) }",
            "SELECT * WHERE { ?s ?p ?o FILTER(?o > ¦☂) }",
            "SELECT * WHERE { ?s ?p ?¦ }",
            "SELECT * WHERE { ?s ?p ?o¦",
            "SELECT * WHERE { ?s ?p ?o } LIMIT¦",
            "¦",
        ] {
            let text = marked.replace('¦', "");
            let e = parse_query(&text).expect_err(marked);
            assert_eq!(e.offset, marked.find('¦').unwrap(), "{marked} → {e}");
        }
    }

    #[test]
    fn parse_predicate_and_object_lists() {
        let q =
            parse_query("PREFIX ex: <http://e.org/> SELECT * WHERE { ?x ex:p 1, 2 ; ex:q 3 . }")
                .unwrap();
        assert_eq!(q.patterns.len(), 3);
        assert!(q.patterns.iter().all(|p| p.s == TermOrVar::Var("x".into())));
    }

    #[test]
    fn parse_filter_comparison_and_logic() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?v FILTER(?v > 10 && ?v <= 20 || !(?v = 5)) }")
            .unwrap();
        assert_eq!(q.filters.len(), 1);
        assert!(matches!(q.filters[0], Expr::Or(_, _)));
    }

    #[test]
    fn parse_filter_functions() {
        let q = parse_query(
            "SELECT * WHERE { ?s ?p ?v FILTER(CONTAINS(STR(?v), \"abc\") && BOUND(?s) && ISIRI(?s)) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn parse_aggregates_and_group() {
        let q = parse_query(
            "SELECT ?c (COUNT(*) AS ?n) (AVG(?v) AS ?avg) WHERE { ?s ?p ?v . ?s a ?c } GROUP BY ?c",
        )
        .unwrap();
        match &q.form {
            QueryForm::Select { projections, .. } => {
                assert_eq!(projections.len(), 3);
                assert!(matches!(
                    projections[1],
                    Projection::Aggregate(Aggregate::Count(None), _)
                ));
            }
            _ => panic!("expected select"),
        }
        assert_eq!(q.group_by, vec!["c"]);
    }

    #[test]
    fn parse_order_limit_offset() {
        let q = parse_query("SELECT ?v WHERE { ?s ?p ?v } ORDER BY DESC(?v) ?s LIMIT 10 OFFSET 5")
            .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0], ("v".into(), SortDir::Desc));
        assert_eq!(q.order_by[1], ("s".into(), SortDir::Asc));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, 5);
    }

    #[test]
    fn parse_ask() {
        let q = parse_query("ASK { <http://e.org/a> <http://e.org/p> 5 }").unwrap();
        assert_eq!(q.form, QueryForm::Ask);
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let q = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             SELECT * WHERE { ?s ?p \"2016-01-01\"^^xsd:date . ?s ?q \"hi\"@en }",
        )
        .unwrap();
        let o0 = match &q.patterns[0].o {
            TermOrVar::Term(Term::Literal(l)) => l.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(o0.datatype().unwrap().as_str(), xsd::DATE);
        let o1 = match &q.patterns[1].o {
            TermOrVar::Term(Term::Literal(l)) => l.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(o1.lang(), Some("en"));
    }

    #[test]
    fn parse_distinct() {
        let q = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(matches!(q.form, QueryForm::Select { distinct: true, .. }));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT WHERE { }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p ?o } garbage").is_err());
        assert!(parse_query("SELECT * WHERE { ?s unknown:p ?o }").is_err());
        assert!(parse_query("SELECT * WHERE { ?s ?p ?o FILTER(NOPE(?s)) }").is_err());
    }

    #[test]
    fn iri_vs_less_than_disambiguation() {
        let q = parse_query("SELECT * WHERE { ?s <http://e.org/p> ?v FILTER(?v < 10) }").unwrap();
        assert_eq!(q.patterns.len(), 1);
        assert!(matches!(q.filters[0], Expr::Compare(_, CompareOp::Lt, _)));
    }
}
