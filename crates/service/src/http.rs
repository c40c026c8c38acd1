//! Minimal std-only HTTP/1.1 plumbing.
//!
//! The service speaks just enough HTTP for a JSON API over loopback or a
//! LAN: one request per connection (`Connection: close`), `Content-Length`
//! bodies, no chunked encoding, no TLS. Both the server and the client
//! library use this module, so the wire format is tested in one place.

use std::io::{self, BufRead, Read, Write};

use graphalytics_granula::json::Json;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body — submissions are tiny, so this is a
/// hostile-input guard.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Upper bound on a *response* body read by the client. Far larger than
/// the request cap: `GET /results` exports grow with every recorded job
/// and the client must be able to read what its own server serves.
pub const MAX_RESPONSE_BYTES: usize = 1024 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from `reader`. Returns `Ok(None)` on a clean EOF
    /// before the first byte (client closed without sending a request).
    pub fn read(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
        let line = match read_crlf_line(reader, true)? {
            None => return Ok(None),
            Some(line) => line,
        };
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
            _ => return Err(bad_data(format!("malformed request line {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad_data(format!("unsupported protocol {version:?}")));
        }
        let headers = read_headers(reader)?;
        let body = read_body(reader, &headers, MAX_BODY_BYTES)?;
        Ok(Some(Request { method: method.to_string(), path: path.to_string(), headers, body }))
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text, if it is valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The request path split into non-empty segments (`/jobs/7` →
    /// `["jobs", "7"]`); any `?query` suffix is dropped.
    pub fn segments(&self) -> Vec<&str> {
        let path = self.path.split('?').next().unwrap_or("");
        path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// The value of one `?key=value` query parameter, if present. No
    /// percent-decoding — the API's parameter values are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// An HTTP response carrying a JSON (or plain-text) body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// `Content-Type` header value; [`Response::json`] and
    /// [`Response::error`] set `application/json`, [`Response::text`]
    /// sets `text/plain` (the Prometheus exposition format).
    pub content_type: &'static str,
}

impl Response {
    /// A response with a JSON value as its body.
    pub fn json(status: u16, body: &Json) -> Response {
        Response { status, body: body.to_string_pretty(), content_type: "application/json" }
    }

    /// A response with an already-serialized JSON body.
    pub fn raw_json(status: u16, body: String) -> Response {
        Response { status, body, content_type: "application/json" }
    }

    /// A plain-text response (`GET /metrics?format=prometheus`).
    pub fn text(status: u16, body: String) -> Response {
        Response { status, body, content_type: "text/plain; version=0.0.4" }
    }

    /// The standard error shape: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, &Json::obj(vec![("error", Json::str(message.into()))]))
    }

    /// Writes the response, always with `Connection: close`.
    pub fn write(&self, writer: &mut impl Write) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
        )?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }
}

/// Reads one response (status + body) — the client side of [`Response`].
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let line = read_crlf_line(reader, false)?
        .ok_or_else(|| bad_data("connection closed before status line".to_string()))?;
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| bad_data(format!("malformed status line {line:?}")))?
        }
        _ => return Err(bad_data(format!("malformed status line {line:?}"))),
    };
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, MAX_RESPONSE_BYTES)?;
    let body =
        String::from_utf8(body).map_err(|_| bad_data("response body is not UTF-8".to_string()))?;
    Ok((status, body))
}

/// The reason phrase for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads a CRLF- (or bare-LF-) terminated line. `None` on EOF before the
/// first byte when `eof_ok` is set.
fn read_crlf_line(reader: &mut impl BufRead, eof_ok: bool) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.take(MAX_HEAD_BYTES as u64).read_line(&mut line)?;
    if n == 0 {
        if eof_ok {
            return Ok(None);
        }
        return Err(bad_data("unexpected end of stream".to_string()));
    }
    if !line.ends_with('\n') && line.len() >= MAX_HEAD_BYTES {
        return Err(bad_data("header line too long".to_string()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn read_headers(reader: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_crlf_line(reader, false)?.unwrap_or_default();
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEAD_BYTES {
            return Err(bad_data("request head too large".to_string()));
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| bad_data(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
}

fn read_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
    limit: usize,
) -> io::Result<Vec<u8>> {
    let length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse::<usize>().map_err(|_| bad_data(format!("bad Content-Length {v:?}"))))
        .transpose()?
        .unwrap_or(0);
    if length > limit {
        return Err(bad_data(format!("body of {length} bytes exceeds limit")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let wire =
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n{\"dataset\":\"a\"}";
        // 15-byte body declared as 14: only 14 bytes are consumed.
        let mut cursor = Cursor::new(wire.as_bytes());
        let req = Request::read(&mut cursor).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body.len(), 14);
        assert_eq!(req.body_utf8(), Some("{\"dataset\":\"a\""));
    }

    #[test]
    fn parses_get_without_body() {
        let wire = "GET /jobs/7?verbose=1 HTTP/1.1\r\n\r\n";
        let req = Request::read(&mut Cursor::new(wire.as_bytes())).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments(), vec!["jobs", "7"]);
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(Request::read(&mut Cursor::new(b"")).unwrap().is_none());
    }

    #[test]
    fn malformed_requests_error() {
        for wire in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            assert!(Request::read(&mut Cursor::new(wire.as_bytes())).is_err(), "{wire:?}");
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let wire = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(Request::read(&mut Cursor::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(200, &Json::obj(vec![("ok", Json::Bool(true))]));
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        let (status, body) = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(Json::parse(&body).unwrap().get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn error_response_shape() {
        let resp = Response::error(404, "no such job");
        assert_eq!(resp.status, 404);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("no such job"));
    }

    #[test]
    fn query_params_parse() {
        let wire = "GET /metrics?format=prometheus&x=1 HTTP/1.1\r\n\r\n";
        let req = Request::read(&mut Cursor::new(wire.as_bytes())).unwrap().unwrap();
        assert_eq!(req.segments(), vec!["metrics"]);
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        let bare = Request::read(&mut Cursor::new(b"GET /metrics HTTP/1.1\r\n\r\n".as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn text_response_content_type() {
        let resp = Response::text(200, "metric 1\n".to_string());
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        assert!(text.ends_with("metric 1\n"));
    }

    #[test]
    fn status_texts() {
        assert_eq!(status_text(202), "Accepted");
        assert_eq!(status_text(409), "Conflict");
        assert_eq!(status_text(599), "Unknown");
    }
}
