//! Minimal HTTP/1.1 on `std::io` — request parsing, fixed responses, and
//! chunked `Transfer-Encoding` writing with trailers.
//!
//! The parser accepts exactly what the serving layer needs: a request
//! line, headers, and an optional `Content-Length` body, all under hard
//! size limits enforced *while* reading, so a hostile peer cannot make a
//! worker allocate without bound. Connections are persistent: a parsed
//! request leaves the reader at the first byte of the next one, and
//! anything that would make that position ambiguous (a
//! `Transfer-Encoding` request body, conflicting lengths, any malformed
//! head) is a [`ParseError::Malformed`] the caller answers with 400 and
//! closes on — it never tries to resynchronise.
//!
//! Every response says `Connection: keep-alive` or `close` as its caller
//! decides, and reaches the socket in as few writes as its framing
//! allows: a fixed response is one gather write (head and body
//! together), a chunked one is one write per chunk with the head riding
//! the first and the trailers riding the terminal chunk. A head flushed
//! on its own would be a segment of its own on a `TCP_NODELAY` socket and
//! a Nagle/delayed-ACK stall on any other.

use std::io::{self, BufRead, IoSlice, Read, Write};

/// Hard cap on the request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body (`POST /sparql` query text).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, e.g. `/explore/filter`.
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    /// Whether the client allows the connection to outlive this request:
    /// HTTP/1.1 without a `close` token in its `Connection` header.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The socket failed or timed out before a full request arrived.
    Io(io::Error),
    /// The peer closed without sending anything (not an error worth a
    /// response — e.g. a health prober connecting and hanging up).
    Closed,
    /// The bytes are not a well-formed HTTP/1.1 request, with a reason.
    Malformed(&'static str),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> ParseError {
        ParseError::Io(e)
    }
}

/// Decodes `%XX` escapes; in query strings `+` additionally means space.
pub fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push(h << 4 | l);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into a decoded path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(kv, true), String::new()),
        })
        .collect();
    (percent_decode(path, false), params)
}

/// Reads one line of the head into `line` — whole, or empty at end of
/// stream — never buffering past the head cap: a peer that streams bytes
/// without a newline is cut off at `MAX_HEAD_BYTES`, not at the end of
/// its stream.
fn read_head_line<'a>(
    reader: &mut impl BufRead,
    line: &'a mut Vec<u8>,
    head_bytes: &mut usize,
) -> Result<&'a str, ParseError> {
    line.clear();
    let room = (MAX_HEAD_BYTES - *head_bytes) as u64 + 1;
    *head_bytes += (&mut *reader).take(room).read_until(b'\n', line)?;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ParseError::Malformed("request head too large"));
    }
    if !line.is_empty() && !line.ends_with(b"\n") {
        return Err(ParseError::Malformed("eof inside request head"));
    }
    std::str::from_utf8(line).map_err(|_| ParseError::Malformed("request head is not UTF-8"))
}

/// Reads one request from `reader`, leaving it at the first byte after
/// the request (the next request's, on a persistent connection).
///
/// Blocks until a full head (and body, if declared) arrives, the
/// configured socket timeout fires, or a size limit trips.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut head_bytes = 0usize;
    let mut line = Vec::new();
    // Request line; skip leading blank lines per RFC 9112 §2.2.
    let request_line = loop {
        let text = read_head_line(reader, &mut line, &mut head_bytes)?;
        if text.is_empty() {
            return Err(ParseError::Closed);
        }
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if !trimmed.is_empty() {
            break trimmed.to_string();
        }
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Malformed("bad request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    // Headers. The two that frame the body are checked as they pass: a
    // request whose end is ambiguous must not be followed by another.
    let mut headers = Vec::new();
    let mut content_length = None;
    let mut keep_alive = version == "HTTP/1.1";
    loop {
        let text = read_head_line(reader, &mut line, &mut head_bytes)?;
        if text.is_empty() {
            return Err(ParseError::Malformed("eof inside headers"));
        }
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Malformed("bad header line"));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "transfer-encoding" => {
                return Err(ParseError::Malformed(
                    "transfer-encoding request bodies are not supported; send content-length",
                ));
            }
            "content-length" => {
                // Digits only: `parse` alone would take a leading `+`.
                let len = Some(value)
                    .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or(ParseError::Malformed("bad content-length"))?;
                if content_length.is_some_and(|seen| seen != len) {
                    return Err(ParseError::Malformed("conflicting content-length headers"));
                }
                content_length = Some(len);
            }
            "connection"
                if value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close")) =>
            {
                keep_alive = false;
            }
            _ => {}
        }
        headers.push((name, value.to_string()));
    }
    // Body.
    let len = content_length.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(ParseError::Malformed("body too large"));
    }
    let mut body = vec![0; len];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => ParseError::Malformed("eof inside body"),
        _ => ParseError::Io(e),
    })?;
    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// The status line and headers shared by both framings, without the
/// blank line. `framing` is the `Content-Length` or `Transfer-Encoding`
/// header line.
fn response_head(
    status: u16,
    reason: &str,
    content_type: &str,
    framing: std::fmt::Arguments<'_>,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> String {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{framing}\r\nConnection: {connection}\r\n"
    );
    for (k, v) in extra_headers {
        head.extend([k, ": ", v, "\r\n"]);
    }
    head
}

/// Writes a complete non-chunked response — head and body in one gather
/// write, so a large body (a 2 MB chart) is not copied in behind its head.
pub fn write_response(
    w: &mut impl Write,
    keep_alive: bool,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = response_head(
        status,
        reason,
        content_type,
        format_args!("Content-Length: {}", body.len()),
        keep_alive,
        extra_headers,
    );
    head.push_str("\r\n");
    // `write_all_vectored`, which is not stable yet.
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A chunked-transfer response in progress.
///
/// Every [`ChunkedWriter::chunk`] call puts one HTTP chunk on the socket
/// before it returns, so the client sees bytes while the server is still
/// producing later chunks — the progressive-delivery behaviour §2 of the
/// survey asks of exploratory interfaces. Trailers declared at
/// construction are sent with the terminal chunk; the serving layer uses
/// them to attach degradation metadata that is only known once streaming
/// ends.
pub struct ChunkedWriter<W: Write> {
    w: W,
    /// What the next write carries: the head until the first chunk (or
    /// [`ChunkedWriter::finish`]) takes it along, then one chunk at a
    /// time. Reused across chunks.
    buf: Vec<u8>,
    chunks_written: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Assembles the status line and headers, declaring chunked encoding
    /// and the trailer names that [`ChunkedWriter::finish`] may send.
    /// `extra_headers` are emitted before the blank line — metadata
    /// known *before* streaming starts (trailers carry what is only
    /// known after). Nothing is written yet: the head leaves with the
    /// first chunk.
    pub fn start(
        w: W,
        keep_alive: bool,
        status: u16,
        reason: &str,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        trailer_names: &[&str],
    ) -> ChunkedWriter<W> {
        let mut head = response_head(
            status,
            reason,
            content_type,
            format_args!("Transfer-Encoding: chunked"),
            keep_alive,
            extra_headers,
        );
        if !trailer_names.is_empty() {
            head.extend(["Trailer: ", &trailer_names.join(", "), "\r\n"]);
        }
        head.push_str("\r\n");
        ChunkedWriter {
            w,
            buf: head.into_bytes(),
            chunks_written: 0,
        }
    }

    /// Hands the assembled bytes to the socket in one write.
    fn send(&mut self) -> io::Result<()> {
        let sent = self.w.write_all(&self.buf).and_then(|()| self.w.flush());
        self.buf.clear();
        sent
    }

    /// Emits one chunk; it is on the socket when this returns. Empty
    /// input is skipped (a zero-length chunk would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.buf, "{:x}\r\n", data.len())?;
        self.buf.extend_from_slice(data);
        self.buf.extend_from_slice(b"\r\n");
        self.send()?;
        self.chunks_written += 1;
        Ok(())
    }

    /// Number of chunks emitted so far.
    pub fn chunks_written(&self) -> u64 {
        self.chunks_written
    }

    /// Terminates the stream: the final chunk and `trailers`, one write.
    pub fn finish(mut self, trailers: &[(&str, String)]) -> io::Result<()> {
        self.buf.extend_from_slice(b"0\r\n");
        for (k, v) in trailers {
            write!(self.buf, "{k}: {v}\r\n")?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.send()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /explore/filter?session=s1&value=a%20b&q=x+y HTTP/1.1\r\nHost: h\r\nX-Thing: v\r\n\r\n";
        let r = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/explore/filter");
        assert_eq!(r.param("session"), Some("s1"));
        assert_eq!(r.param("value"), Some("a b"));
        assert_eq!(r.param("q"), Some("x y"));
        assert_eq!(r.header("x-thing"), Some("v"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body() {
        let raw = b"POST /sparql HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let r = read_request(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(
            read_request(&mut BufReader::new(&b"nonsense\r\n\r\n"[..])),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&mut BufReader::new(&b""[..])),
            Err(ParseError::Closed)
        ));
        let huge = format!("GET /x HTTP/1.1\r\nA: {}\r\n\r\n", "y".repeat(32 * 1024));
        assert!(matches!(
            read_request(&mut BufReader::new(huge.as_bytes())),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn percent_decoding_edge_cases() {
        assert_eq!(percent_decode("a%2Fb", false), "a/b");
        assert_eq!(percent_decode("bad%zz", false), "bad%zz");
        assert_eq!(percent_decode("trunc%2", false), "trunc%2");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
    }

    /// A `Write` that records what each `write` call carried.
    #[derive(Default)]
    struct Wire {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.write(
                &bufs
                    .iter()
                    .flat_map(|b| b.iter().copied())
                    .collect::<Vec<u8>>(),
            )
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Wire {
        fn text(&self) -> String {
            String::from_utf8(self.writes.concat()).unwrap()
        }
    }

    #[test]
    fn framing_that_would_desynchronise_a_persistent_connection_is_malformed() {
        for raw in [
            &b"POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                [..],
            b"POST /sparql HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
            b"POST /sparql HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            b"POST /sparql HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST /sparql HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello",
            b"POST /sparql HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
            b"POST /sparql HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
            b"POST /sparql HTTP/1.1\r\nContent-Length: 9\r\n\r\nhello",
            b"GET /\xff HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(
                    read_request(&mut BufReader::new(raw)),
                    Err(ParseError::Malformed(_))
                ),
                "{}",
                String::from_utf8_lossy(raw)
            );
        }
        // The same length twice is one length.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(
            read_request(&mut BufReader::new(&raw[..])).unwrap().body,
            b"hi"
        );
    }

    #[test]
    fn a_head_without_a_newline_is_cut_off_at_the_cap_not_at_its_end() {
        // An endless line: the parser must give up after the head cap.
        let mut endless = BufReader::new(io::repeat(b'a'));
        assert!(matches!(
            read_request(&mut endless),
            Err(ParseError::Malformed("request head too large"))
        ));
    }

    #[test]
    fn requests_parse_back_to_back_and_say_whether_they_persist() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n\r\nGET /c HTTP/1.0\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let a = read_request(&mut reader).unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", &b"abc"[..]));
        assert!(a.keep_alive, "HTTP/1.1 persists by default");
        let b = read_request(&mut reader).unwrap();
        assert_eq!(b.path, "/b");
        assert!(!b.keep_alive, "a close token among others");
        let c = read_request(&mut reader).unwrap();
        assert_eq!(c.path, "/c");
        assert!(!c.keep_alive, "HTTP/1.0");
        assert!(matches!(read_request(&mut reader), Err(ParseError::Closed)));
    }

    #[test]
    fn a_fixed_response_is_one_write_and_says_keep_alive_or_close() {
        for (keep_alive, connection) in [(true, "keep-alive"), (false, "close")] {
            let mut out = Wire::default();
            let headers = [("X-A", "1")];
            write_response(
                &mut out,
                keep_alive,
                200,
                "OK",
                "text/plain",
                &headers,
                b"hi",
            )
            .unwrap();
            assert_eq!(out.writes.len(), 1, "head and body leave together");
            assert_eq!(
                out.text(),
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
                     Connection: {connection}\r\nX-A: 1\r\n\r\nhi"
                )
            );
        }
    }

    #[test]
    fn chunked_stream_with_trailers_is_one_write_per_chunk() {
        let mut out = Wire::default();
        let mut cw = ChunkedWriter::start(
            &mut out,
            true,
            200,
            "OK",
            "application/json",
            &[("X-Extra", "e1")],
            &["X-Degraded"],
        );
        cw.chunk(b"abc").unwrap();
        cw.chunk(b"").unwrap(); // skipped, must not terminate
        cw.chunk(b"defgh").unwrap();
        assert_eq!(cw.chunks_written(), 2);
        cw.finish(&[("X-Degraded", "none".to_string())]).unwrap();
        // Two chunks and the terminal one: the head rode the first, the
        // trailers the last, and each chunk was whole when it left.
        assert_eq!(out.writes.len(), 3);
        let first = String::from_utf8(out.writes[0].clone()).unwrap();
        assert!(first.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(first.ends_with("\r\n\r\n3\r\nabc\r\n"), "{first:?}");
        assert_eq!(out.writes[1], b"5\r\ndefgh\r\n");
        assert_eq!(out.writes[2], b"0\r\nX-Degraded: none\r\n\r\n");
        let s = out.text();
        assert!(s.contains("Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n"));
        assert!(s.contains("X-Extra: e1\r\n"));
        assert!(s.contains("Trailer: X-Degraded\r\n\r\n"));
    }

    #[test]
    fn a_chunked_response_without_chunks_sends_its_head_with_the_terminator() {
        let mut out = Wire::default();
        drop(ChunkedWriter::start(
            &mut out,
            false,
            200,
            "OK",
            "text/plain",
            &[],
            &[],
        ));
        assert!(out.writes.is_empty(), "the head is never flushed alone");
        ChunkedWriter::start(&mut out, false, 200, "OK", "text/plain", &[], &[])
            .finish(&[])
            .unwrap();
        assert_eq!(out.writes.len(), 1);
        assert!(out.text().ends_with("Connection: close\r\n\r\n0\r\n\r\n"));
    }
}
