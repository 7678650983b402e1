//! Answers in one canonical shape, whichever path produced them, and the
//! expectations they are checked against.
//!
//! A SPARQL answer — parsed from the `/sparql` JSON body or taken from an
//! in-process [`wodex::sparql::QueryResult`] — becomes a [`Table`] of
//! plain terms. Expectations are built from the generator's [`Model`]
//! (never from the path under test) as row hashes: an exact answer is a
//! row count plus an order-independent digest, and a `LIMIT` without
//! `ORDER BY` is a row count plus the set the rows must come from.
//!
//! [`Model`]: crate::gen::Model

use crate::gen::{fnv1a, FNV_OFFSET};
use crate::json::Json;

const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    pub iri: bool,
    pub value: String,
    /// `None` for IRIs and plain (`xsd:string`) literals.
    pub datatype: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Table {
    Boolean(bool),
    Rows {
        vars: Vec<String>,
        rows: Vec<Vec<Option<Term>>>,
    },
}

/// Hashes one row, binding by binding, in projection order.
#[derive(Debug, Clone, Copy)]
pub struct RowHasher(u64);

impl RowHasher {
    #[allow(clippy::new_without_default)]
    pub fn new() -> RowHasher {
        RowHasher(FNV_OFFSET)
    }

    fn bind(self, var: &str, kind: u8, value: &str, datatype: &str) -> RowHasher {
        let mut h = self.0;
        for part in [
            var.as_bytes(),
            &[kind],
            value.as_bytes(),
            datatype.as_bytes(),
        ] {
            h = fnv1a(part, h);
            h = fnv1a(&[0x1f], h);
        }
        RowHasher(h)
    }

    pub fn iri(self, var: &str, iri: &str) -> RowHasher {
        self.bind(var, b'u', iri, "")
    }

    pub fn lit(self, var: &str, lexical: &str, datatype: &str) -> RowHasher {
        self.bind(var, b'l', lexical, datatype)
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Table {
    /// The SPARQL 1.1 JSON results document `body`.
    pub fn from_sparql_json(body: &[u8]) -> Result<Table, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body is not utf-8: {e}"))?;
        let doc = Json::parse(text)?;
        if let Some(b) = doc.get("boolean").and_then(Json::as_bool) {
            return Ok(Table::Boolean(b));
        }
        let vars: Vec<String> = doc
            .get("head")
            .and_then(|h| h.get("vars"))
            .and_then(Json::as_arr)
            .ok_or("no head.vars")?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        let bindings = doc
            .get("results")
            .and_then(|r| r.get("bindings"))
            .and_then(Json::as_arr)
            .ok_or("no results.bindings")?;
        let mut rows = Vec::with_capacity(bindings.len());
        for b in bindings {
            let mut row = Vec::with_capacity(vars.len());
            for v in &vars {
                row.push(match b.get(v) {
                    None => None,
                    Some(cell) => {
                        let kind = cell.get("type").and_then(Json::as_str).ok_or("no type")?;
                        let value = cell.get("value").and_then(Json::as_str).ok_or("no value")?;
                        let datatype = cell
                            .get("datatype")
                            .and_then(Json::as_str)
                            .filter(|d| *d != XSD_STRING);
                        Some(Term {
                            iri: kind == "uri",
                            value: value.to_string(),
                            datatype: datatype.map(str::to_string),
                        })
                    }
                });
            }
            rows.push(row);
        }
        Ok(Table::Rows { vars, rows })
    }

    /// An in-process query result.
    pub fn from_result(result: &wodex::sparql::QueryResult) -> Result<Table, String> {
        use wodex::sparql::QueryResult;
        match result {
            QueryResult::Boolean(b) => Ok(Table::Boolean(*b)),
            QueryResult::Solutions(t) => Ok(Table::Rows {
                vars: t.columns.clone(),
                rows: t
                    .rows
                    .iter()
                    .map(|r| r.iter().map(|c| c.as_ref().map(plain)).collect())
                    .collect(),
            }),
            QueryResult::Described(_) => Err("DESCRIBE is not part of the benchmark".to_string()),
        }
    }

    /// One hash per row.
    pub fn row_hashes(&self) -> Vec<u64> {
        let Table::Rows { vars, rows } = self else {
            return Vec::new();
        };
        rows.iter()
            .map(|row| {
                let mut h = RowHasher::new();
                for (var, cell) in vars.iter().zip(row) {
                    if let Some(t) = cell {
                        h = if t.iri {
                            h.iri(var, &t.value)
                        } else {
                            h.lit(var, &t.value, t.datatype.as_deref().unwrap_or(""))
                        };
                    }
                }
                h.finish()
            })
            .collect()
    }
}

fn plain(t: &wodex::rdf::Term) -> Term {
    use wodex::rdf::Term as T;
    match t {
        T::Iri(i) => Term {
            iri: true,
            value: i.as_str().to_string(),
            datatype: None,
        },
        T::Literal(l) => Term {
            iri: false,
            value: l.lexical().to_string(),
            datatype: l
                .datatype()
                .map(|d| d.as_str().to_string())
                .filter(|d| d != XSD_STRING),
        },
        T::Blank(b) => Term {
            iri: false,
            value: format!("_:{}", b.label()),
            datatype: None,
        },
    }
}

/// Order-independent digest of a multiset of row hashes.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0u64, u64::wrapping_add)
}

/// What a SPARQL answer must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these rows, in any order.
    Rows {
        rows: usize,
        digest: u64,
    },
    /// `rows` rows, each drawn from `allowed` (sorted) — a `LIMIT`
    /// without `ORDER BY` may return any subset.
    AnyOf {
        rows: usize,
        allowed: Vec<u64>,
    },
    Ask(bool),
    /// `?c ?avg` rows: per class IRI, the average within 1e-9 relative.
    Averages(Vec<(String, f64)>),
}

impl Expect {
    pub fn exact(hashes: impl IntoIterator<Item = u64>) -> Expect {
        let (mut rows, mut sum) = (0, 0u64);
        for h in hashes {
            rows += 1;
            sum = sum.wrapping_add(h);
        }
        Expect::Rows { rows, digest: sum }
    }

    pub fn any_of(rows: usize, allowed: impl IntoIterator<Item = u64>) -> Expect {
        let mut allowed: Vec<u64> = allowed.into_iter().collect();
        allowed.sort_unstable();
        Expect::AnyOf { rows, allowed }
    }

    /// The same expectation made wrong, for `--self-test`.
    pub fn corrupted(&self) -> Expect {
        match self {
            Expect::Rows { rows, digest } => Expect::Rows {
                rows: *rows,
                digest: digest ^ 1,
            },
            Expect::AnyOf { rows, allowed } => Expect::AnyOf {
                rows: rows + 1,
                allowed: allowed.clone(),
            },
            Expect::Ask(b) => Expect::Ask(!b),
            Expect::Averages(a) => {
                Expect::Averages(a.iter().map(|(c, v)| (c.clone(), v + 1.0)).collect())
            }
        }
    }

    pub fn verify(&self, table: &Table) -> Result<(), String> {
        match (self, table) {
            (Expect::Ask(want), Table::Boolean(got)) if want == got => Ok(()),
            (Expect::Ask(want), got) => Err(format!("expected ASK {want}, got {got:?}")),
            (Expect::Rows { rows, digest: want }, t @ Table::Rows { .. }) => {
                let hashes = t.row_hashes();
                let got = digest(hashes.iter().copied());
                if hashes.len() == *rows && got == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "expected {rows} rows digest {want:016x}, got {} rows digest {got:016x}",
                        hashes.len()
                    ))
                }
            }
            (Expect::AnyOf { rows, allowed }, t @ Table::Rows { .. }) => {
                let mut hashes = t.row_hashes();
                if hashes.len() != *rows {
                    return Err(format!("expected {rows} rows, got {}", hashes.len()));
                }
                hashes.sort_unstable();
                if hashes.windows(2).any(|w| w[0] == w[1]) {
                    return Err("a row was returned twice".to_string());
                }
                match hashes.iter().find(|h| allowed.binary_search(h).is_err()) {
                    None => Ok(()),
                    Some(_) => Err("a returned row is not part of the answer".to_string()),
                }
            }
            (Expect::Averages(want), Table::Rows { rows, .. }) => {
                if rows.len() != want.len() {
                    return Err(format!(
                        "expected {} groups, got {}",
                        want.len(),
                        rows.len()
                    ));
                }
                for row in rows {
                    let (Some(Some(class)), Some(Some(avg))) = (row.first(), row.get(1)) else {
                        return Err("unbound group cell".to_string());
                    };
                    let got: f64 = avg
                        .value
                        .parse()
                        .map_err(|_| format!("average {:?} is not a number", avg.value))?;
                    let Some((_, w)) = want.iter().find(|(c, _)| *c == class.value) else {
                        return Err(format!("unexpected group {}", class.value));
                    };
                    if (got - w).abs() > 1e-9 * w.abs() {
                        return Err(format!(
                            "average of {}: expected {w}, got {got}",
                            class.value
                        ));
                    }
                }
                Ok(())
            }
            (_, Table::Boolean(_)) => Err("expected rows, got a boolean".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &[u8] = br#"{"head":{"vars":["s","n"]},"results":{"bindings":[
        {"s":{"type":"uri","value":"http://x/a"},"n":{"type":"literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#integer"}},
        {"s":{"type":"uri","value":"http://x/b"}}]}}"#;

    fn model_rows() -> [u64; 2] {
        [
            RowHasher::new()
                .iri("s", "http://x/a")
                .lit("n", "3", "http://www.w3.org/2001/XMLSchema#integer")
                .finish(),
            RowHasher::new().iri("s", "http://x/b").finish(),
        ]
    }

    #[test]
    fn json_rows_hash_like_model_rows_in_any_order() {
        let t = Table::from_sparql_json(BODY).unwrap();
        let [a, b] = model_rows();
        assert_eq!(t.row_hashes(), vec![a, b]);
        assert!(Expect::exact([b, a]).verify(&t).is_ok());
        assert!(Expect::exact([b, a]).corrupted().verify(&t).is_err());
        assert!(Expect::exact([a]).verify(&t).is_err());
    }

    #[test]
    fn any_of_checks_count_membership_and_duplicates() {
        let t = Table::from_sparql_json(BODY).unwrap();
        let [a, b] = model_rows();
        assert!(Expect::any_of(2, [a, b, 7]).verify(&t).is_ok());
        assert!(Expect::any_of(2, [a, 7]).verify(&t).is_err());
        assert!(Expect::any_of(1, [a, b]).verify(&t).is_err());
    }

    #[test]
    fn ask_and_plain_literals() {
        let t = Table::from_sparql_json(br#"{"head":{},"boolean":true}"#).unwrap();
        assert!(Expect::Ask(true).verify(&t).is_ok());
        assert!(Expect::Ask(true).corrupted().verify(&t).is_err());
        let typed = Table::from_sparql_json(
            br#"{"head":{"vars":["l"]},"results":{"bindings":[{"l":{"type":"literal","value":"x","datatype":"http://www.w3.org/2001/XMLSchema#string"}}]}}"#,
        )
        .unwrap();
        assert_eq!(
            typed.row_hashes(),
            vec![RowHasher::new().lit("l", "x", "").finish()]
        );
    }
}
