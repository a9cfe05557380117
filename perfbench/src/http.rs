//! A minimal HTTP/1.1 keep-alive client over `std::net`.
//!
//! The benchmark drives the program only through its public HTTP surface,
//! so it carries its own client: one persistent connection per load
//! thread, reopened when the server closes it (idle timeout or the
//! per-connection request cap).

use serde_json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body, de-chunked.
    pub body: Vec<u8>,
}

impl Response {
    /// Body parsed as JSON (`Null` when it is not JSON).
    pub fn json(&self) -> Value {
        std::str::from_utf8(&self.body)
            .ok()
            .and_then(|t| serde_json::parse_value(t).ok())
            .unwrap_or(Value::Null)
    }

    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One keep-alive connection to `addr`.
pub struct Conn {
    addr: String,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection that opens lazily on the first request.
    pub fn new(addr: &str, timeout: Duration) -> Conn {
        Conn {
            addr: addr.to_string(),
            timeout,
            stream: None,
        }
    }

    /// Open the connection now, so connect cost stays out of timed requests.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(())
    }

    /// Send one request and read its response. On any error the connection
    /// is dropped (the next request reconnects) and the error returned.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        self.connect()?;
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let (response, close) = read_response(reader)?;
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one response; the flag says whether the server closes afterwards.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(Response, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                .map_err(|_| bad("malformed chunk size"))?;
            if size == 0 {
                // Trailers end with an empty line.
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                        break;
                    }
                }
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            line.clear();
            reader.read_line(&mut line)?;
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
        close = true;
    }
    Ok((Response { status, body }, close))
}

/// One request on a fresh connection.
pub fn call(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
    Conn::new(addr, Duration::from_secs(30)).request(method, path, body)
}

/// `GET path` as JSON, or `Null` on any failure.
pub fn get_json(addr: &str, path: &str) -> Value {
    call(addr, "GET", path, b"")
        .map(|r| r.json())
        .unwrap_or(Value::Null)
}

/// Counters of a `/metrics?format=prometheus` scrape, summed over label
/// sets, by metric name. Empty on failure.
pub fn prom_scrape(addr: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let Ok(resp) = call(addr, "GET", "/metrics?format=prometheus", b"") else {
        return out;
    };
    for line in String::from_utf8_lossy(&resp.body).lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let name = key.split('{').next().unwrap_or(key);
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    out
}
