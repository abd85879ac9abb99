//! A minimal closed-loop HTTP/1.1 client for the campaign server: one
//! request per connection, chunked bodies decoded with their `;seq=`
//! extensions, and the two instants the benchmark times.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One decoded response.
#[derive(Debug, Default)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Campaign-Run` header, if present.
    pub run: Option<String>,
    /// The de-chunked (or `Content-Length`) body.
    pub body: String,
    /// Per chunk, in arrival order: its `;seq=` extension, if any.
    pub seqs: Vec<Option<u64>>,
    /// Per chunk: the body offset where it ends.
    pub chunk_ends: Vec<usize>,
    /// From the first byte sent until the second chunk (the group-0
    /// chunk; the first carries the document prefix) had fully arrived.
    pub first_group: Option<Duration>,
    /// From the first byte sent until the body was complete.
    pub total: Duration,
}

impl Reply {
    /// Data of chunk `i`.
    pub fn chunk(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.chunk_ends[i - 1] };
        &self.body[start..self.chunk_ends[i]]
    }
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    let t0 = Instant::now();
    (&stream).write_all(&out)?;

    let mut reply = Reply::default();
    let mut line = String::new();
    reader.read_line(&mut line)?;
    reply.status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("headers cut short".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-campaign-run") {
                reply.run = Some(value.to_string());
            }
        }
    }
    if chunked {
        decode_chunks(&mut reader, &mut reply, |n, reply| {
            if n == 2 {
                reply.first_group = Some(t0.elapsed());
            }
        })?;
    } else {
        let mut bytes = Vec::new();
        match length {
            Some(n) => {
                bytes.resize(n, 0);
                reader.read_exact(&mut bytes)?;
            }
            None => {
                reader.read_to_end(&mut bytes)?;
            }
        }
        reply.body = String::from_utf8(bytes).map_err(|_| invalid("body is not UTF-8".into()))?;
    }
    reply.total = t0.elapsed();
    Ok(reply)
}

/// Decodes a chunked body into `reply` (body, `seqs`, `chunk_ends`),
/// calling `on_chunk(chunks so far, reply)` after each data chunk has
/// fully arrived. Returns once the terminating chunk and its trailer
/// section have been read.
pub fn decode_chunks(
    r: &mut impl BufRead,
    reply: &mut Reply,
    mut on_chunk: impl FnMut(usize, &mut Reply),
) -> io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("stream ended before the terminating chunk".into()));
        }
        let mut parts = line.trim_end().split(';');
        let size_text = parts.next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| invalid(format!("bad chunk size line {line:?}")))?;
        let seq = parts
            .filter_map(|ext| ext.trim().strip_prefix("seq="))
            .find_map(|v| v.parse::<u64>().ok());
        if size == 0 {
            // Trailer section: header lines up to an empty line.
            loop {
                line.clear();
                if r.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                    return Ok(());
                }
            }
        }
        let mut data = vec![0u8; size + 2];
        r.read_exact(&mut data)?;
        if &data[size..] != b"\r\n" {
            return Err(invalid("chunk data not followed by CRLF".into()));
        }
        data.truncate(size);
        let text = std::str::from_utf8(&data).map_err(|_| invalid("chunk is not UTF-8".into()))?;
        reply.body.push_str(text);
        reply.seqs.push(seq);
        reply.chunk_ends.push(reply.body.len());
        on_chunk(reply.seqs.len(), reply);
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_chunks_with_seq_extensions_and_trailers() {
        let wire = b"3;seq=0\r\nabc\r\nA;seq=1\r\n0123456789\r\n1\r\n!\r\n0\r\nX-T: 1\r\n\r\nrest";
        let mut r = &wire[..];
        let mut reply = Reply::default();
        let mut seen = Vec::new();
        decode_chunks(&mut r, &mut reply, |n, reply| {
            seen.push((n, reply.body.len()))
        })
        .unwrap();
        assert_eq!(reply.body, "abc0123456789!");
        assert_eq!(reply.seqs, vec![Some(0), Some(1), None]);
        assert_eq!(reply.chunk_ends, vec![3, 13, 14]);
        assert_eq!(reply.chunk(1), "0123456789");
        assert_eq!(seen, vec![(1, 3), (2, 13), (3, 14)]);
        assert_eq!(r, b"rest");
    }

    #[test]
    fn rejects_truncated_and_malformed_chunks() {
        for wire in [
            &b"5;seq=0\r\nabc"[..],
            b"3\r\nabcXY0\r\n\r\n",
            b"zz\r\nabc\r\n",
            b"3\r\nabc\r\n",
        ] {
            let mut r = wire;
            assert!(decode_chunks(&mut r, &mut Reply::default(), |_, _| {}).is_err());
        }
    }
}
