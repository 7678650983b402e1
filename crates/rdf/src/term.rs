//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Terms follow the RDF 1.1 abstract syntax. Literals carry an optional
//! datatype IRI and an optional language tag (mutually exclusive, as in the
//! spec: language-tagged strings implicitly have datatype
//! `rdf:langString`).

use crate::vocab::xsd;
use std::fmt;

/// An IRI (we do not perform full RFC 3987 validation; we check the minimal
/// well-formedness needed to round-trip through N-Triples/Turtle: non-empty,
/// no whitespace, no angle brackets).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(String);

impl Iri {
    /// Creates an IRI from a string without validation.
    ///
    /// Use [`Iri::parse`] when handling untrusted input.
    pub fn new(iri: impl Into<String>) -> Self {
        Iri(iri.into())
    }

    /// Creates an IRI, checking minimal well-formedness.
    pub fn parse(iri: impl Into<String>) -> Result<Self, crate::RdfError> {
        let s: String = iri.into();
        if s.is_empty()
            || s.chars()
                .any(|c| c.is_whitespace() || c == '<' || c == '>' || c == '"')
        {
            return Err(crate::RdfError::InvalidIri(s));
        }
        Ok(Iri(s))
    }

    /// The IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The "local name": the part after the last `#` or `/`, used for
    /// human-facing labels when no `rdfs:label` is present.
    pub fn local_name(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(i) if i + 1 < s.len() => &s[i + 1..],
            _ => s,
        }
    }

    /// The namespace part: everything up to and including the last `#`/`/`.
    pub fn namespace(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(i) => &s[..=i],
            None => "",
        }
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node, identified by a document-scoped label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(String);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode(label.into())
    }

    /// The blank node label (without the `_:` prefix).
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a datatype or a language tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: String,
    /// Datatype IRI. `None` means `xsd:string` (a "simple" literal) unless
    /// `lang` is set, in which case the implicit datatype is
    /// `rdf:langString`.
    datatype: Option<Iri>,
    lang: Option<String>,
}

impl Literal {
    /// A plain string literal (`xsd:string`).
    pub fn string(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: None,
        }
    }

    /// A typed literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: Iri) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(datatype),
            lang: None,
        }
    }

    /// A language-tagged string, e.g. `"Athens"@en`.
    pub fn lang_string(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: Some(lang.into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), Iri::new(xsd::INTEGER))
    }

    /// An `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal::typed(format_double(v), Iri::new(xsd::DOUBLE))
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Self {
        Literal::typed(v.to_string(), Iri::new(xsd::BOOLEAN))
    }

    /// An `xsd:date` literal from (year, month, day).
    pub fn date(year: i32, month: u32, day: u32) -> Self {
        Literal::typed(
            format!("{year:04}-{month:02}-{day:02}"),
            Iri::new(xsd::DATE),
        )
    }

    /// An `xsd:dateTime` literal from components (UTC).
    pub fn date_time(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        Literal::typed(
            format!("{year:04}-{month:02}-{day:02}T{hour:02}:{min:02}:{sec:02}Z"),
            Iri::new(xsd::DATE_TIME),
        )
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The explicit datatype IRI, if any.
    pub fn datatype(&self) -> Option<&Iri> {
        self.datatype.as_ref()
    }

    /// The effective datatype IRI string: explicit datatype, or
    /// `rdf:langString` for language-tagged strings, or `xsd:string`.
    pub fn effective_datatype(&self) -> &str {
        if let Some(dt) = &self.datatype {
            dt.as_str()
        } else if self.lang.is_some() {
            crate::vocab::rdf::LANG_STRING
        } else {
            xsd::STRING
        }
    }

    /// The language tag, if any.
    pub fn lang(&self) -> Option<&str> {
        self.lang.as_deref()
    }
}

/// Formats an f64 so that integral doubles keep a trailing `.0` marker and
/// the value round-trips through `str::parse::<f64>`.
pub(crate) fn format_double(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for inclusion in an N-Triples/Turtle quoted literal.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_literal`] — and reads the `\'`, `\uXXXX` and
/// `\UXXXXXXXX` escapes it never writes. Returns `None` on a malformed
/// escape. Every parser's strings come through here ([`crate::lex`]).
pub fn unescape_literal(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            '\'' => out.push('\''),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next().unwrap_or('?')).collect();
                let cp = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(cp)?);
            }
            'U' => {
                let hex: String = (0..8).map(|_| chars.next().unwrap_or('?')).collect();
                let cp = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(cp)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")
        } else if let Some(dt) = &self.datatype {
            if dt.as_str() == xsd::STRING {
                Ok(())
            } else {
                write!(f, "^^{dt}")
            }
        } else {
            Ok(())
        }
    }
}

/// An RDF term: the union of IRIs, blank nodes, and literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Shorthand for an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(Iri::new(s))
    }

    /// Shorthand for a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Shorthand for a plain string literal term.
    pub fn literal(s: impl Into<String>) -> Self {
        Term::Literal(Literal::string(s))
    }

    /// Shorthand for an `xsd:integer` literal term.
    pub fn integer(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    /// Shorthand for an `xsd:double` literal term.
    pub fn double(v: f64) -> Self {
        Term::Literal(Literal::double(v))
    }

    /// Returns the IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True if the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// True if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if the term may appear in subject position (IRI or blank node).
    pub fn is_resource(&self) -> bool {
        !self.is_literal()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Self {
        Term::Iri(i)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_local_name_and_namespace() {
        let i = Iri::new("http://dbpedia.org/resource/Athens");
        assert_eq!(i.local_name(), "Athens");
        assert_eq!(i.namespace(), "http://dbpedia.org/resource/");
        let h = Iri::new("http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(h.local_name(), "integer");
        assert_eq!(h.namespace(), "http://www.w3.org/2001/XMLSchema#");
        // Without a '#'/'/' separator the whole IRI is its own local name.
        let bare = Iri::new("urn:x");
        assert_eq!(bare.local_name(), "urn:x");
        assert_eq!(bare.namespace(), "");
    }

    #[test]
    fn iri_parse_rejects_malformed() {
        assert!(Iri::parse("").is_err());
        assert!(Iri::parse("has space").is_err());
        assert!(Iri::parse("has<bracket").is_err());
        assert!(Iri::parse("http://example.org/ok").is_ok());
    }

    #[test]
    fn literal_display_variants() {
        assert_eq!(Literal::string("hi").to_string(), "\"hi\"");
        assert_eq!(Literal::lang_string("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Literal::integer(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        // xsd:string datatype is implicit and suppressed.
        assert_eq!(
            Literal::typed("hi", Iri::new(xsd::STRING)).to_string(),
            "\"hi\""
        );
    }

    #[test]
    fn literal_escaping_roundtrip() {
        let s = "line1\nline2\t\"quoted\" back\\slash";
        let escaped = escape_literal(s);
        assert!(!escaped.contains('\n'));
        assert_eq!(unescape_literal(&escaped).unwrap(), s);
    }

    #[test]
    fn unescape_handles_unicode_escapes() {
        assert_eq!(unescape_literal("\\u00e9").unwrap(), "é");
        assert_eq!(unescape_literal("\\U0001F600").unwrap(), "😀");
        assert!(unescape_literal("\\q").is_none());
    }

    #[test]
    fn effective_datatype_rules() {
        assert_eq!(Literal::string("x").effective_datatype(), xsd::STRING);
        assert_eq!(
            Literal::lang_string("x", "en").effective_datatype(),
            crate::vocab::rdf::LANG_STRING
        );
        assert_eq!(Literal::integer(1).effective_datatype(), xsd::INTEGER);
    }

    #[test]
    fn double_formatting_roundtrips() {
        for v in [0.0, 1.0, -3.25, 1e-9, 12345.678, -1e20] {
            let s = format_double(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "formatting {v} as {s}");
        }
        assert_eq!(format_double(5.0), "5.0");
    }

    #[test]
    fn term_predicates() {
        assert!(Term::iri("http://e.org/a").is_iri());
        assert!(Term::iri("http://e.org/a").is_resource());
        assert!(Term::blank("b0").is_blank());
        assert!(Term::blank("b0").is_resource());
        assert!(Term::literal("x").is_literal());
        assert!(!Term::literal("x").is_resource());
    }

    #[test]
    fn term_ordering_is_total_and_stable() {
        let mut terms = [
            Term::literal("b"),
            Term::iri("http://e.org/z"),
            Term::blank("a"),
            Term::iri("http://e.org/a"),
        ];
        terms.sort();
        // All IRIs group together, ordering within groups is lexicographic.
        assert!(terms[0].is_iri() && terms[1].is_iri());
    }
}
