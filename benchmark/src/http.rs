//! The benchmark's HTTP/1.1 client: content-length and chunked bodies,
//! trailers, and connection reuse whenever the response allows it.
//!
//! Every response carries the client-side span boundaries of its request
//! (connect, send, wait for the first body byte, body), so a traced run
//! needs no second code path — it just keeps what an untraced run drops.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Nanosecond offsets from the moment the request started.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Connection established (0 when a kept-alive connection was reused).
    pub connected_ns: u64,
    /// Request bytes handed to the kernel.
    pub sent_ns: u64,
    /// First body byte available (the head's end for an empty body).
    pub first_byte_ns: u64,
    /// Last byte (including trailers) read.
    pub done_ns: u64,
    pub reused: bool,
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// Names lowercased.
    pub headers: Vec<(String, String)>,
    pub trailers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Bytes read off the socket for this response.
    pub bytes_in: usize,
    pub timing: Timing,
}

impl Response {
    /// A header or, failing that, a trailer.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .chain(&self.trailers)
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, &[])
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", target, body)
    }

    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let start = Instant::now();
        if let Some(conn) = self.conn.take() {
            // A kept-alive connection may have been closed by the peer
            // since the last response; one fresh attempt is the standard
            // client answer.
            if let Ok(r) = self.exchange(conn, &wire, start, 0, true) {
                return Ok(r);
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let connected_ns = start.elapsed().as_nanos() as u64;
        self.exchange(BufReader::new(stream), &wire, start, connected_ns, false)
    }

    fn exchange(
        &mut self,
        mut conn: BufReader<TcpStream>,
        wire: &[u8],
        start: Instant,
        connected_ns: u64,
        reused: bool,
    ) -> io::Result<Response> {
        conn.get_mut().write_all(wire)?;
        let sent_ns = start.elapsed().as_nanos() as u64;
        let mut bytes_in = 0usize;
        let mut line = String::new();
        let status_line = read_line(&mut conn, &mut line, &mut bytes_in)?.to_string();
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let headers = read_fields(&mut conn, &mut line, &mut bytes_in)?;
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let chunked =
            header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let length = header("content-length").and_then(|v| v.parse::<usize>().ok());
        let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let mut body = Vec::new();
        let mut trailers = Vec::new();
        let first_byte_ns;
        if chunked {
            let mut first = None;
            loop {
                let size_line = read_line(&mut conn, &mut line, &mut bytes_in)?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    break;
                }
                if first.is_none() {
                    conn.fill_buf()?;
                    first = Some(start.elapsed().as_nanos() as u64);
                }
                let at = body.len();
                body.resize(at + size, 0);
                conn.read_exact(&mut body[at..])?;
                let mut crlf = [0u8; 2];
                conn.read_exact(&mut crlf)?;
                bytes_in += size + 2;
            }
            trailers = read_fields(&mut conn, &mut line, &mut bytes_in)?;
            first_byte_ns = first.unwrap_or_else(|| start.elapsed().as_nanos() as u64);
        } else if let Some(n) = length {
            if n > 0 {
                conn.fill_buf()?;
            }
            first_byte_ns = start.elapsed().as_nanos() as u64;
            body.resize(n, 0);
            conn.read_exact(&mut body)?;
            bytes_in += n;
        } else {
            // No framing: the body runs to end of stream.
            first_byte_ns = start.elapsed().as_nanos() as u64;
            bytes_in += conn.read_to_end(&mut body)?;
        }
        let done_ns = start.elapsed().as_nanos() as u64;
        if !close && (chunked || length.is_some()) {
            self.conn = Some(conn);
        }
        Ok(Response {
            status,
            headers,
            trailers,
            body,
            bytes_in,
            timing: Timing {
                connected_ns,
                sent_ns,
                first_byte_ns,
                done_ns,
                reused,
            },
        })
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one CRLF-terminated line into `line` and returns it trimmed.
fn read_line<'a>(
    conn: &mut BufReader<TcpStream>,
    line: &'a mut String,
    bytes_in: &mut usize,
) -> io::Result<&'a str> {
    line.clear();
    let n = conn.read_line(line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    *bytes_in += n;
    Ok(line.trim_end_matches(['\r', '\n']))
}

/// Reads `name: value` lines up to the blank line (headers or trailers).
fn read_fields(
    conn: &mut BufReader<TcpStream>,
    line: &mut String,
    bytes_in: &mut usize,
) -> io::Result<Vec<(String, String)>> {
    let mut fields = Vec::new();
    loop {
        let l = read_line(conn, line, bytes_in)?;
        if l.is_empty() {
            return Ok(fields);
        }
        let (name, value) = l
            .split_once(':')
            .ok_or_else(|| bad(format!("bad field line {l:?}")))?;
        fields.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Percent-encodes a query-string value.
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `responses` back to back on one accepted connection.
    fn canned(responses: Vec<&'static [u8]>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut out = stream;
            for r in responses {
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                out.write_all(r).unwrap();
            }
        });
        addr
    }

    #[test]
    fn parses_chunked_bodies_and_trailers_and_reuses_the_connection() {
        let addr = canned(vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-A: 1\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\nX-T: done\r\n\r\n",
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno",
        ]);
        let mut c = Client::new(addr);
        let r = c.get("/a").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"abcde"[..]));
        assert_eq!(r.field("x-a"), Some("1"));
        assert_eq!(r.field("x-t"), Some("done"));
        assert!(!r.timing.reused && r.timing.sent_ns <= r.timing.first_byte_ns);
        assert!(r.timing.first_byte_ns <= r.timing.done_ns);
        // The canned server accepts once, so this only succeeds on the
        // kept-alive connection.
        let r = c.get("/b").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (404, &b"no"[..]));
        assert!(r.timing.reused);
        assert!(c.conn.is_none(), "Connection: close must drop the stream");
    }

    #[test]
    fn encodes_reserved_bytes() {
        assert_eq!(encode("http://x/y z"), "http%3A%2F%2Fx%2Fy%20z");
    }
}
