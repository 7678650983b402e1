//! The on-disk term dictionary sidecar (`dict.wdx`).
//!
//! Terms are stored **front-coded** in id order: each entry records how
//! many bytes of N-Triples text it shares with its predecessor, then the
//! differing suffix. Ids are implicit — [`wodex_rdf::TermDict`] assigns
//! dense ids in insertion order, so re-interning the terms in file order
//! reproduces exactly the ids the segments were encoded with. The whole
//! payload carries one trailing checksum; a corrupt dictionary is
//! rejected at open, never decoded into garbage terms.
//!
//! The dictionary resides in RAM once opened — the classic HDT trade-off:
//! triple *data* stays on disk and is block-paged, the term *mapping*
//! (a small fraction of the data size after front-coding) loads eagerly.

use std::io::{BufWriter, Read, Write};
use std::path::Path;
use wodex_rdf::ntriples::parse_term;
use wodex_rdf::TermDict;
use wodex_resilience::page_checksum;
use wodex_store::encoded::{read_varint, write_varint};

/// Magic bytes leading a dictionary file.
pub const DICT_MAGIC: &[u8; 8] = b"WDIC0001";

/// File name of the dictionary inside a segment directory.
pub const DICT_FILE: &str = "dict.wdx";

fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Writes `dict` to `path` (via a `*.tmp` sibling and atomic rename).
/// Terms are serialized in id order as their N-Triples `Display` form.
pub fn write_dict(dict: &TermDict, path: &Path) -> std::io::Result<()> {
    let mut payload = Vec::new();
    write_varint(&mut payload, dict.len() as u64);
    let mut prev = String::new();
    for (_, term) in dict.iter() {
        let text = term.to_string();
        let shared = shared_prefix(prev.as_bytes(), text.as_bytes());
        write_varint(&mut payload, shared as u64);
        write_varint(&mut payload, (text.len() - shared) as u64);
        payload.extend_from_slice(&text.as_bytes()[shared..]);
        prev = text;
    }
    let tmp = path.with_extension("tmp");
    let mut file = BufWriter::new(std::fs::File::create(&tmp)?);
    file.write_all(DICT_MAGIC)?;
    file.write_all(&payload)?;
    file.write_all(&page_checksum(&payload).to_le_bytes())?;
    file.flush()?;
    file.get_ref().sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Reads a dictionary back. Verifies magic and checksum, then re-interns
/// every term in file order so ids match the writing dictionary exactly.
pub fn read_dict(path: &Path) -> Result<TermDict, String> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() < DICT_MAGIC.len() + 8 || &bytes[..DICT_MAGIC.len()] != DICT_MAGIC {
        return Err("bad dictionary magic".into());
    }
    let payload = &bytes[DICT_MAGIC.len()..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if page_checksum(payload) != stored {
        return Err("dictionary checksum mismatch".into());
    }
    let mut pos = 0usize;
    let count = read_varint(payload, &mut pos).ok_or("truncated dictionary count")? as usize;
    // An entry is at least its two varints, so the payload bounds what
    // the count field may reserve.
    let mut dict = TermDict::with_capacity(count.min(payload.len() / 2));
    // Entries are rebuilt on bytes, as the writer front-codes them: a
    // shared prefix may end inside a multi-byte character, so neither the
    // prefix nor the suffix is UTF-8 on its own — only the whole entry is.
    let mut prev: Vec<u8> = Vec::new();
    for i in 0..count {
        let shared = read_varint(payload, &mut pos).ok_or("truncated entry")? as usize;
        let suffix_len = read_varint(payload, &mut pos).ok_or("truncated entry")? as usize;
        let end = pos.saturating_add(suffix_len);
        if shared > prev.len() || end > payload.len() {
            return Err(format!("entry {i} out of bounds"));
        }
        prev.truncate(shared);
        prev.extend_from_slice(&payload[pos..end]);
        pos = end;
        let text = std::str::from_utf8(&prev).map_err(|e| format!("entry {i} not UTF-8: {e}"))?;
        let term = parse_term(text).map_err(|e| format!("entry {i} does not parse: {e}"))?;
        let id = dict.intern(term);
        if id.index() != i {
            return Err(format!("duplicate term at entry {i}"));
        }
    }
    if pos != payload.len() {
        return Err("trailing bytes after last dictionary entry".into());
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::{Literal, Term};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wodex_seg_dict_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_dict() -> TermDict {
        let mut d = TermDict::new();
        for i in 0..200 {
            d.intern_iri(&format!("http://example.org/resource/{i}"));
        }
        d.intern(Term::blank("b0"));
        d.intern(Term::literal("plain text with \"quotes\" and \\ escapes"));
        d.intern(Term::Literal(Literal::lang_string("hello", "en")));
        d.intern(Term::integer(42));
        d
    }

    #[test]
    fn roundtrip_preserves_ids_and_terms() {
        let d = sample_dict();
        let path = tmp("roundtrip.wdx");
        write_dict(&d, &path).unwrap();
        let back = read_dict(&path).unwrap();
        assert_eq!(back.len(), d.len());
        for (id, term) in d.iter() {
            assert_eq!(back.term(id), term, "id {id:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn front_coding_compresses_shared_iri_prefixes() {
        let d = sample_dict();
        let path = tmp("size.wdx");
        write_dict(&d, &path).unwrap();
        let coded = std::fs::metadata(&path).unwrap().len() as usize;
        let raw: usize = d.iter().map(|(_, t)| t.to_string().len()).sum();
        assert!(
            coded < raw * 2 / 3,
            "front coding should beat raw text: {coded} vs {raw}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_dictionary_is_rejected() {
        let d = sample_dict();
        let path = tmp("corrupt.wdx");
        write_dict(&d, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_dict(&path).unwrap_err().contains("checksum"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_count_field_cannot_size_an_allocation() {
        // A well-formed file (magic, checksum) whose count claims 2^62
        // entries and holds none: a typed error, not a 2^62-slot reserve.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1 << 62);
        let mut bytes = DICT_MAGIC.to_vec();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&page_checksum(&payload).to_le_bytes());
        let path = tmp("count.wdx");
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_dict(&path).unwrap_err().contains("truncated entry"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_dictionary_is_rejected() {
        let d = sample_dict();
        let path = tmp("trunc.wdx");
        write_dict(&d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_dict(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
