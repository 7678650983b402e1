//! The one RDF term lexer, shared by N-Triples, Turtle and SPARQL.
//!
//! The three grammars spell terms the same way — `<iri>`, `_:label`, a
//! quoted string with escapes, `@lang`, `^^datatype`, a number, a prefixed
//! name — so those productions live here once, on a [`Cursor`]: a byte
//! offset into a `&str` that only ever rests on a character boundary and
//! hands back **slices of the input**. Nothing is pushed byte by byte, so a
//! multi-byte character can not be mangled, and a literal without an escape
//! is borrowed; one with escapes goes through [`unescape_literal`], the only
//! escape table in the workspace.
//!
//! The cursor has no modes. Each grammar is the set of productions its
//! caller invokes and what it does around the slice: N-Triples calls
//! [`Cursor::short_string`] and never [`Cursor::pname`] or
//! [`Cursor::numeric_literal`]; Turtle resolves `@base` and prefixes;
//! SPARQL keeps its own variables, keywords, punctuation and the
//! `<`-is-an-IRI-or-less-than lookahead.

use crate::error::RdfError;
use crate::term::unescape_literal;
use crate::vocab::xsd;
use std::borrow::Cow;

/// A lexical error: what went wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset into the input, at most its length.
    pub offset: usize,
    /// 1-based line of `offset`.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl From<LexError> for RdfError {
    fn from(e: LexError) -> Self {
        RdfError::syntax(e.line, e.message)
    }
}

/// A position in a `&str`, with the term productions as methods.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The unread input.
    pub fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// True at the end of the input.
    pub fn eof(&self) -> bool {
        self.pos == self.src.len()
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> LexError {
        self.error_at(self.pos, message)
    }

    /// An error at `offset` (clamped to the input's length).
    pub fn error_at(&self, offset: usize, message: impl Into<String>) -> LexError {
        let offset = offset.min(self.src.len());
        let newlines = self.src.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n');
        LexError {
            offset,
            line: 1 + newlines.count(),
            message: message.into(),
        }
    }

    /// Consumes the ASCII byte `b` if it is next.
    pub fn eat(&mut self, b: u8) -> bool {
        let hit = b.is_ascii() && self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `s` or fails where it should have started.
    pub fn expect(&mut self, s: &str) -> Result<(), LexError> {
        if !self.rest().starts_with(s) {
            return Err(self.error(format!("expected '{s}'")));
        }
        self.pos += s.len();
        Ok(())
    }

    /// Consumes the longest prefix whose characters satisfy `pred`.
    pub fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let taken = &rest[..rest.find(|c| !pred(c)).unwrap_or(rest.len())];
        self.pos += taken.len();
        taken
    }

    /// Skips ASCII whitespace and `#` comments (Turtle and SPARQL).
    pub fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'#' {
                let rest = self.rest();
                self.pos += rest.find('\n').map_or(rest.len(), |i| i + 1);
            } else {
                break;
            }
        }
    }

    /// `IRIREF`: `<` … `>` with no whitespace, control character, `<` or
    /// `"` inside. Returns the text between the brackets, possibly empty
    /// and possibly relative: resolving and validating it is the caller's.
    pub fn iri_ref(&mut self) -> Result<&'a str, LexError> {
        self.expect("<")?;
        let body = self.rest();
        let stop = |b: u8| b <= b' ' || matches!(b, b'<' | b'>' | b'"');
        match body.bytes().position(stop) {
            Some(i) if body.as_bytes()[i] == b'>' => {
                self.pos += i + 1;
                Ok(&body[..i])
            }
            Some(i) => Err(self.error_at(self.pos + i, "whitespace or quote inside IRI")),
            None => Err(self.error_at(self.src.len(), "unterminated IRI")),
        }
    }

    /// `_:label`, the label drawn from letters, digits, `_` and `-`. (The
    /// specs also allow medial dots; keeping them out leaves `.` free to end
    /// a statement without lookahead, and every serializer here complies.)
    pub fn blank_node_label(&mut self) -> Result<&'a str, LexError> {
        self.expect("_:")?;
        let label = self.take_while(is_name_char);
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(label)
    }

    /// `@tag`, the tag non-empty.
    pub fn lang_tag(&mut self) -> Result<&'a str, LexError> {
        self.expect("@")?;
        let tag = self.take_while(|c| c.is_ascii_alphanumeric() || c == '-');
        if tag.is_empty() {
            return Err(self.error("empty language tag"));
        }
        Ok(tag)
    }

    /// `STRING_LITERAL_QUOTE`: a one-line `"…"` string, the only form
    /// N-Triples has. Returns the unescaped lexical form.
    pub fn short_string(&mut self) -> Result<Cow<'a, str>, LexError> {
        self.quoted(b'"', 1)
    }

    /// Any of Turtle's and SPARQL's four string forms: `"…"`, `'…'`,
    /// `"""…"""`, `'''…'''`. Returns the unescaped lexical form.
    pub fn string_literal(&mut self) -> Result<Cow<'a, str>, LexError> {
        let quote = self.peek().filter(|b| matches!(b, b'"' | b'\''));
        let quote = quote.ok_or_else(|| self.error("expected a quoted string"))?;
        let long = self.rest().as_bytes().starts_with(&[quote; 3]);
        self.quoted(quote, if long { 3 } else { 1 })
    }

    /// The string opening with `delim` (1 or 3) `quote`s at the cursor.
    fn quoted(&mut self, quote: u8, delim: usize) -> Result<Cow<'a, str>, LexError> {
        if self.peek() != Some(quote) {
            return Err(self.error("expected a quoted string"));
        }
        let bytes = self.src.as_bytes();
        let (open, body) = (self.pos, self.pos + delim);
        let mut escaped = false;
        let mut i = body;
        // Every byte tested below is ASCII, so `i` stops on a boundary.
        loop {
            match bytes.get(i) {
                Some(b'\\') if i + 1 < bytes.len() => {
                    escaped = true;
                    i += 2;
                }
                Some(b'\\') => return Err(self.error_at(i, "unterminated escape")),
                Some(&b) if b == quote && bytes[i..].starts_with(&[quote; 3][..delim]) => break,
                Some(b'\n') if delim == 1 => {
                    return Err(self.error_at(i, "newline in short literal"))
                }
                Some(_) => i += 1,
                None => return Err(self.error_at(i, "unterminated literal")),
            }
        }
        self.pos = i + delim;
        let raw = &self.src[body..i];
        if !escaped {
            return Ok(Cow::Borrowed(raw));
        }
        let unescaped = unescape_literal(raw).map(Cow::Owned);
        unescaped.ok_or_else(|| self.error_at(open, "malformed escape in literal"))
    }

    /// A numeric abbreviation and its datatype IRI: `xsd:integer` (`-7`),
    /// `xsd:decimal` (`1.5`) or `xsd:double` (`1e6`, `1.5E-3`), as Turtle
    /// and SPARQL both define them. A `.` not followed by a digit is left
    /// for the statement.
    pub fn numeric_literal(&mut self) -> Result<(&'a str, &'static str), LexError> {
        let bytes = self.src.as_bytes();
        let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let digits = |mut i: usize| {
            while digit_at(i) {
                i += 1;
            }
            i
        };
        let sign_at = |i: usize| usize::from(matches!(bytes.get(i), Some(b'+' | b'-')));
        let start = self.pos;
        let first = start + sign_at(start);
        let mut end = digits(first);
        let mut datatype = xsd::INTEGER;
        if bytes.get(end) == Some(&b'.') && digit_at(end + 1) {
            end = digits(end + 1);
            datatype = xsd::DECIMAL;
        }
        if end == first {
            return Err(self.error_at(first, "expected a digit"));
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let exponent = end + 1 + sign_at(end + 1);
            if digit_at(exponent) {
                end = digits(exponent);
                datatype = xsd::DOUBLE;
            }
        }
        self.pos = end;
        Ok((&self.src[start..end], datatype))
    }

    /// `prefix:local` as `(prefix, Some(local))`, either part possibly
    /// empty; or, with no colon, the bare word (`a`, `true`, a keyword) as
    /// `(word, None)`. Parts are letters, digits, `_` and `-`; a prefix may
    /// also hold medial dots.
    pub fn pname(&mut self) -> (&'a str, Option<&'a str>) {
        let start = self.pos;
        let mut prefix = self.take_while(is_name_char);
        while !prefix.is_empty() && self.rest().starts_with('.') {
            let dot = self.pos;
            self.pos += 1;
            if self.take_while(is_name_char).is_empty() {
                self.pos = dot;
                break;
            }
            prefix = &self.src[start..self.pos];
        }
        if self.eat(b':') {
            return (prefix, Some(self.take_while(is_name_char)));
        }
        // A word is not a prefix: it ends at its first dot.
        let word = prefix.split('.').next().unwrap_or(prefix);
        self.pos = start + word.len();
        (word, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn productions_return_slices_and_advance() {
        let mut c = Cursor::new("<http://e.org/café> _:b-1 \"x\"@en-GB ex.v2:naïve true.");
        assert_eq!(c.iri_ref().unwrap(), "http://e.org/café");
        c.skip_ws();
        assert_eq!(c.blank_node_label().unwrap(), "b-1");
        c.skip_ws();
        assert!(matches!(c.string_literal().unwrap(), Cow::Borrowed("x")));
        assert_eq!(c.lang_tag().unwrap(), "en-GB");
        c.skip_ws();
        assert_eq!(c.pname(), ("ex.v2", Some("naïve")));
        c.skip_ws();
        assert_eq!(c.pname(), ("true", None));
        assert_eq!(c.rest(), ".");
    }

    #[test]
    fn strings_unescape_only_when_they_must() {
        let mut c = Cursor::new(
            r#""caf\u00E9 \"q\"" 'it\'s' """a "quoted"
line""" "火""#,
        );
        assert_eq!(c.short_string().unwrap(), "café \"q\"");
        c.skip_ws();
        assert_eq!(c.string_literal().unwrap(), "it's");
        c.skip_ws();
        assert_eq!(c.string_literal().unwrap(), "a \"quoted\"\nline");
        c.skip_ws();
        assert!(matches!(c.short_string().unwrap(), Cow::Borrowed("火")));
        assert!(c.eof());
    }

    #[test]
    fn numbers_take_the_datatype_both_specs_give_them() {
        for (text, lexical, datatype, rest) in [
            ("42 .", "42", xsd::INTEGER, " ."),
            ("-7.", "-7", xsd::INTEGER, "."),
            ("1.5,", "1.5", xsd::DECIMAL, ","),
            ("+.5", "+.5", xsd::DECIMAL, ""),
            ("1e6", "1e6", xsd::DOUBLE, ""),
            ("1.5E-3)", "1.5E-3", xsd::DOUBLE, ")"),
            ("1e", "1", xsd::INTEGER, "e"),
        ] {
            let mut c = Cursor::new(text);
            assert_eq!(c.numeric_literal().unwrap(), (lexical, datatype), "{text}");
            assert_eq!(c.rest(), rest, "{text}");
        }
        assert!(Cursor::new("+").numeric_literal().is_err());
        assert!(Cursor::new("-x").numeric_literal().is_err());
    }

    #[test]
    fn errors_carry_an_in_range_offset_and_a_line() {
        let at = |r: Result<&str, LexError>| r.unwrap_err().offset;
        assert_eq!(at(Cursor::new("<http://a b>").iri_ref()), 9);
        assert_eq!(at(Cursor::new("<http://a").iri_ref()), 9);
        assert_eq!(at(Cursor::new("x").iri_ref()), 0);
        assert_eq!(at(Cursor::new("_:").blank_node_label()), 2);
        assert_eq!(at(Cursor::new("@").lang_tag()), 1);
        let e = Cursor::new("\n\n\"abc").string_literal();
        assert!(e.is_err()); // not a quote at offset 0
        let mut c = Cursor::new("\n\n\"abc");
        c.skip_ws();
        let e = c.string_literal().unwrap_err();
        assert_eq!((e.offset, e.line), (6, 3));
        for bad in ["\"a\nb\"", "\"a\\", "\"a\\q\"", "\"\\u12\"", "'''a''"] {
            let e = Cursor::new(bad).string_literal().unwrap_err();
            assert!(e.offset <= bad.len(), "{bad:?} → {e:?}");
        }
        assert!(Cursor::new("'x'").short_string().is_err());
    }
}
