//! Keyword search over labels and literals.
//!
//! The entry point of node-centric systems (RDF graph visualizer \[115\]:
//! "nodes of interest are discovered by searching over node labels; then
//! the user can interactively navigate") and the Keyword column of Table
//! 2. A standard inverted index: lowercase alphanumeric tokens → posting
//! lists of subjects, ranked by match count with a tf-flavoured score.
//!
//! The postings ([`TokenPostings`]) are part of the shared
//! [`ExploreIndex`] and hold `(row, tf)` pairs in one flat array;
//! [`SearchIndex`] is the stand-alone handle on them.

use crate::index::ExploreIndex;
use std::collections::HashMap;
use std::sync::Arc;
use wodex_rdf::{Graph, Term, TermDict, TermId};

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching resource.
    pub subject: Term,
    /// Relevance score (higher is better).
    pub score: f64,
    /// Number of query tokens matched.
    pub matched_tokens: usize,
}

/// Splits text into lowercase alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// One subject's accumulated relevance for a query.
pub(crate) struct Scored {
    pub(crate) row: u32,
    pub(crate) score: f64,
    /// Query tokens matched.
    pub(crate) matched: u32,
}

/// The inverted index over the literal objects of a dataset — the
/// shared, immutable half of keyword search.
pub(crate) struct TokenPostings {
    /// Ascending.
    tokens: Vec<Box<str>>,
    /// `entries[offsets[i]..offsets[i + 1]]` is the posting of
    /// `tokens[i]`.
    offsets: Vec<u32>,
    /// `(row, occurrences)`, ascending by row within a posting.
    entries: Vec<(u32, u32)>,
}

impl TokenPostings {
    /// Indexes `literals`: one `(literal object id, subject row)` pair
    /// per triple. The pairs are grouped by object, so each distinct
    /// literal is tokenized once however many triples carry it.
    pub(crate) fn build(dict: &TermDict, mut literals: Vec<(u32, u32)>) -> TokenPostings {
        literals.sort_unstable();
        let mut vocabulary: HashMap<String, u32> = HashMap::new();
        // One `(token, row)` per token occurrence per triple.
        let mut occurrences: Vec<(u32, u32)> = Vec::new();
        for group in literals.chunk_by(|a, b| a.0 == b.0) {
            let Some(literal) = dict.term(TermId(group[0].0)).as_literal() else {
                continue;
            };
            let tokens: Vec<u32> = tokenize(literal.lexical())
                .into_iter()
                .map(|token| {
                    let next = vocabulary.len() as u32;
                    *vocabulary.entry(token).or_insert(next)
                })
                .collect();
            for &(_, row) in group {
                occurrences.extend(tokens.iter().map(|&token| (token, row)));
            }
        }
        // Renumber tokens alphabetically, then run-length encode the
        // sorted occurrences into postings.
        let mut tokens: Vec<(String, u32)> = vocabulary.into_iter().collect();
        tokens.sort_unstable();
        let mut renumbered = vec![0u32; tokens.len()];
        for (new, (_, old)) in tokens.iter().enumerate() {
            renumbered[*old as usize] = new as u32;
        }
        for occurrence in &mut occurrences {
            occurrence.0 = renumbered[occurrence.0 as usize];
        }
        occurrences.sort_unstable();
        let mut offsets = Vec::with_capacity(tokens.len() + 1);
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut token = 0u32;
        offsets.push(0);
        for run in occurrences.chunk_by(|a, b| a == b) {
            while token < run[0].0 {
                offsets.push(entries.len() as u32);
                token += 1;
            }
            entries.push((run[0].1, run.len() as u32));
        }
        offsets.resize(tokens.len() + 1, entries.len() as u32);
        TokenPostings {
            tokens: tokens.into_iter().map(|(t, _)| t.into()).collect(),
            offsets,
            entries,
        }
    }

    fn posting_at(&self, i: usize) -> &[(u32, u32)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn posting(&self, token: &str) -> &[(u32, u32)] {
        self.tokens
            .binary_search_by(|t| (**t).cmp(token))
            .map_or(&[], |i| self.posting_at(i))
    }

    /// Scores every subject matching any query token (OR semantics,
    /// tf·idf summed in query-token order), ascending by row.
    /// `subject_count` is the idf population.
    pub(crate) fn score(&self, query: &str, subject_count: usize) -> Vec<Scored> {
        let mut acc: Vec<Scored> = Vec::new();
        for token in tokenize(query) {
            let posting = self.posting(&token);
            if posting.is_empty() {
                continue;
            }
            let idf = ((subject_count as f64 + 1.0) / (posting.len() as f64 + 1.0)).ln() + 1.0;
            let mut merged = Vec::with_capacity(acc.len().max(posting.len()));
            let mut old = acc.into_iter().peekable();
            for &(row, tf) in posting {
                while let Some(s) = old.next_if(|s| s.row < row) {
                    merged.push(s);
                }
                let mut s = old.next_if(|s| s.row == row).unwrap_or(Scored {
                    row,
                    score: 0.0,
                    matched: 0,
                });
                s.score += (1.0 + (tf as f64).ln()) * idf;
                s.matched += 1;
                merged.push(s);
            }
            merged.extend(old);
            acc = merged;
        }
        acc
    }

    /// Tokens starting with `prefix` (already lowercase), most frequent
    /// first.
    fn complete(&self, prefix: &str, limit: usize) -> Vec<String> {
        let start = self.tokens.partition_point(|t| &**t < prefix);
        let mut matches: Vec<(&str, u64)> = self.tokens[start..]
            .iter()
            .take_while(|t| t.starts_with(prefix))
            .enumerate()
            .map(|(i, t)| {
                let occurrences = self.posting_at(start + i).iter().map(|e| e.1 as u64).sum();
                (&**t, occurrences)
            })
            .collect();
        matches.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        matches
            .into_iter()
            .take(limit)
            .map(|(t, _)| t.to_string())
            .collect()
    }

    pub(crate) fn bytes(&self) -> usize {
        self.tokens
            .iter()
            .map(|t| t.len() + std::mem::size_of::<Box<str>>())
            .sum::<usize>()
            + self.offsets.len() * 4
            + self.entries.len() * 8
    }
}

/// Keyword search over one dataset's literals.
pub struct SearchIndex {
    index: Arc<ExploreIndex>,
}

impl SearchIndex {
    /// Indexes every literal object (labels, comments, names, ...) of
    /// `graph`. To search a dataset that already has an index, use
    /// [`SearchIndex::over`].
    pub fn build(graph: &Graph) -> SearchIndex {
        SearchIndex::over(Arc::new(ExploreIndex::from_graph(graph)))
    }

    /// The search handle on a shared index.
    pub fn over(index: Arc<ExploreIndex>) -> SearchIndex {
        SearchIndex { index }
    }

    /// Number of distinct tokens.
    pub fn token_count(&self) -> usize {
        self.index.tokens().tokens.len()
    }

    /// Searches for all query tokens (OR semantics, ranked by tf·idf sum;
    /// subjects matching more tokens rank strictly higher).
    pub fn search(&self, query: &str, limit: usize) -> Vec<Hit> {
        self.index.search(query, limit)
    }

    /// Prefix completion: tokens starting with `prefix`, most frequent
    /// first (the search-box autocomplete).
    pub fn complete(&self, prefix: &str, limit: usize) -> Vec<String> {
        self.index.tokens().complete(&prefix.to_lowercase(), limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::rdfs;
    use wodex_rdf::Triple;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let items = [
            ("athens", "Athens, capital of Greece"),
            ("sparta", "Sparta, ancient Greece"),
            ("rome", "Rome, capital of Italy"),
            ("milan", "Milan Italy"),
        ];
        for (id, label) in items {
            g.insert(Triple::iri(
                &format!("http://e.org/{id}"),
                rdfs::LABEL,
                Term::literal(label),
            ));
        }
        g
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize("Athens, capital-of GREECE 2016!"),
            vec!["athens", "capital", "of", "greece", "2016"]
        );
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn single_token_search() {
        let idx = SearchIndex::build(&graph());
        let hits = idx.search("greece", 10);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.subject.to_string().contains("athens")
            || h.subject.to_string().contains("sparta")));
    }

    #[test]
    fn multi_token_prefers_more_matches() {
        let idx = SearchIndex::build(&graph());
        let hits = idx.search("capital greece", 10);
        // Athens matches both tokens; Sparta and Rome only one.
        assert_eq!(hits[0].subject, Term::iri("http://e.org/athens"));
        assert_eq!(hits[0].matched_tokens, 2);
        assert!(hits.len() >= 3);
    }

    #[test]
    fn rare_tokens_outscore_common_ones() {
        let idx = SearchIndex::build(&graph());
        // "milan" appears once, "italy" twice: for the same subject a hit
        // on the rarer token scores higher.
        let milan = idx.search("milan", 10)[0].score;
        let italy = idx
            .search("italy", 10)
            .iter()
            .find(|h| h.subject == Term::iri("http://e.org/milan"))
            .unwrap()
            .score;
        assert!(milan > italy);
    }

    #[test]
    fn search_is_case_insensitive_and_limited() {
        let idx = SearchIndex::build(&graph());
        assert_eq!(idx.search("GREECE", 10).len(), 2);
        assert_eq!(idx.search("greece", 1).len(), 1);
        assert!(idx.search("", 10).is_empty());
        assert!(idx.search("zzz", 10).is_empty());
    }

    #[test]
    fn completion_by_frequency() {
        let idx = SearchIndex::build(&graph());
        let c = idx.complete("c", 10);
        assert!(c.contains(&"capital".to_string()));
        let empty = idx.complete("zzz", 10);
        assert!(empty.is_empty());
    }

    #[test]
    fn token_count_reflects_vocabulary() {
        let idx = SearchIndex::build(&graph());
        assert!(idx.token_count() >= 8);
    }
}
