//! The one HTTP front of `recon serve` and `recon gateway`, over a
//! minimal HTTP/1.1 framing layer on `std::net` streams.
//!
//! The framing is just enough of the protocol for the serving endpoints
//! and the loopback clients: request-line + headers + `Content-Length`
//! bodies, HTTP/1.1 keep-alive (connections persist until either side
//! sends `Connection: close` or an idle timeout fires), and nothing
//! else — no chunked encoding, no TLS. Request bodies are capped so a
//! hostile client cannot make the server buffer without bound.
//!
//! [`Front`] owns every connection decision for both services: the
//! listener, a capped pool of handler threads fed through a bounded
//! backlog (a connection beyond both gets the service's `503` at the
//! accept loop), the keep-alive loop with its per-connection timeouts
//! and its `400` on malformed framing, the `404`/`405` fallback, the
//! `500` for a route that panics (its handler thread lives on), every
//! response write, and the self-connect that wakes the accept loop
//! when the service stops. A service only routes: [`Service::route`]
//! maps a request to a [`Reply`] value, and the front writes it.
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::escape;
use crate::queue::{BoundedQueue, PushError};

/// Maximum accepted request/response body, in bytes.
///
/// Sized for the largest legitimate payload, an RCK1 checkpoint shipped
/// over `POST /migrate`. A snapshot holds only the cache slots ever
/// filled and the memory pages that differ from the program image: the
/// first checkpoints at a 20,000-cycle cadence measure 0.50–0.58 MB
/// for PARSEC and 17–209 KB for SPEC2017, at quick and paper scale
/// alike. 8 MiB leaves headroom for long runs that write many pages,
/// while still bounding hostile buffering.
pub const MAX_BODY: usize = 8 << 20;

/// Maximum accepted header section, in bytes (per request).
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request target path (query strings are not split off).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    #[must_use]
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Whether an I/O error is a read/write timeout (reported as either
/// `WouldBlock` or `TimedOut` depending on the platform).
#[must_use]
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request from the stream. `Ok(None)` means the connection
/// ended cleanly between requests: the peer closed it, or (under a
/// read timeout) it sat idle without starting a new request. A timeout
/// *mid*-request is still an error — the peer went quiet halfway
/// through framing.
///
/// # Errors
///
/// I/O errors from the stream, or `InvalidData` for malformed framing
/// (bad request line, oversized headers or body).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        // Idle timeout before any byte of a new request: clean close.
        Err(e) if is_timeout(&e) && line.is_empty() => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    };
    if !version.starts_with("HTTP/") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line version is not HTTP",
        ));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "header section too large",
            ));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// The standard reason phrase for the status codes the service uses.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete response (status line, headers, body) to bytes.
/// `close` selects `Connection: close` vs `Connection: keep-alive`.
#[must_use]
pub fn render_response(
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let conn = if close { "close" } else { "keep-alive" };
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        let _ = write!(out, "{k}: {v}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// The JSON error body every service answers with:
/// `{"error":"<kind>","message":"<message>"}`.
#[must_use]
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":\"{kind}\",\"message\":\"{}\"}}",
        escape(message)
    )
}

/// What a handler answers. The front renders it, decides keep-alive,
/// and writes it.
#[derive(Debug)]
pub struct Reply {
    status: u16,
    headers: Vec<(&'static str, String)>,
    content_type: &'static str,
    body: Vec<u8>,
    close: bool,
    wire: Wire,
}

/// How much of a reply reaches the socket.
#[derive(Clone, Copy, Debug)]
enum Wire {
    /// The whole rendered response.
    Whole,
    /// The first `keep(len)` bytes of the rendered response, then a
    /// close.
    Prefix(fn(usize) -> usize),
    /// The body verbatim, without framing, then a close.
    Raw,
}

impl Reply {
    /// A response with the given content type.
    #[must_use]
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Reply {
        Reply {
            status,
            headers: Vec::new(),
            content_type,
            body: body.into(),
            close: false,
            wire: Wire::Whole,
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Reply {
        Reply::new(status, "application/json", body)
    }

    /// A `{"error":…,"message":…}` response.
    #[must_use]
    pub fn error(status: u16, kind: &str, message: &str) -> Reply {
        Reply::json(status, error_body(kind, message))
    }

    /// `bytes` written verbatim, then a close: no framing at all (an
    /// empty `bytes` drops the connection without a byte). The chaos
    /// plane's dropped and garbage responses.
    #[must_use]
    pub(crate) fn raw(bytes: Vec<u8>) -> Reply {
        Reply {
            wire: Wire::Raw,
            ..Reply::new(0, "", bytes)
        }
    }

    /// Adds a header after the standard ones.
    #[must_use]
    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }

    /// Closes the connection after this reply.
    #[must_use]
    pub fn closing(mut self) -> Reply {
        self.close = true;
        self
    }

    /// Writes only the first `keep(len)` bytes of the rendered response,
    /// then closes: the chaos plane's cut-off responses.
    #[must_use]
    pub(crate) fn torn(mut self, keep: fn(usize) -> usize) -> Reply {
        self.wire = Wire::Prefix(keep);
        self
    }

    /// Writes the reply and flushes; returns whether the connection
    /// closes. `close` is the front's own decision, which the reply can
    /// only strengthen.
    fn write(self, writer: &mut impl Write, close: bool) -> io::Result<bool> {
        let close = close || self.close;
        let framed = || {
            render_response(
                self.status,
                &self.headers,
                self.content_type,
                &self.body,
                close,
            )
        };
        let (bytes, close) = match self.wire {
            Wire::Whole => (framed(), close),
            Wire::Prefix(keep) => {
                let mut bytes = framed();
                bytes.truncate(keep(bytes.len()));
                (bytes, true)
            }
            Wire::Raw => (self.body, true),
        };
        writer.write_all(&bytes)?;
        writer.flush()?;
        Ok(close)
    }
}

/// One HTTP service behind a [`Front`]: its routing table and the two
/// answers the front needs from it.
pub trait Service: Send + Sync + 'static {
    /// Answers one request, or `None` when no route matches (the front
    /// answers `404`, or `405` for a method other than `GET`/`POST`).
    fn route(&self, req: &Request) -> Option<Reply>;

    /// Whether the service is stopping. A stopping service's
    /// connections close after the exchange in progress, and the accept
    /// loop returns once woken.
    fn stopping(&self) -> bool;

    /// The answer to a connection refused because the handler pool and
    /// its backlog are full.
    fn overloaded(&self) -> Reply;
}

/// A running HTTP front: the accept loop and the handler pool.
#[derive(Debug)]
pub struct Front {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Front {
    /// Serves `service` on `listener` with `handlers` connection
    /// threads (and a backlog as large), each connection under the
    /// given read and write timeouts. Threads are named `{name}-accept`
    /// and `{name}-conn-{i}`.
    ///
    /// # Errors
    ///
    /// The listener's address cannot be read.
    pub fn start<S: Service>(
        name: &str,
        listener: TcpListener,
        service: Arc<S>,
        handlers: usize,
        timeouts: (Duration, Duration),
    ) -> io::Result<Front> {
        let addr = listener.local_addr()?;
        let conns = Arc::new(BoundedQueue::new(handlers.max(1)));
        let woken = Arc::new(AtomicBool::new(false));
        let accept = {
            let (service, conns) = (Arc::clone(&service), Arc::clone(&conns));
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &*service, &conns))
                .expect("spawn accept loop")
        };
        let mut threads = vec![accept];
        threads.extend((0..handlers.max(1)).map(|i| {
            let (service, conns, woken) =
                (Arc::clone(&service), Arc::clone(&conns), Arc::clone(&woken));
            std::thread::Builder::new()
                .name(format!("{name}-conn-{i}"))
                .spawn(move || {
                    while let Some(stream) = conns.pop() {
                        let _ = serve_connection(stream, &*service, timeouts);
                        // Once the service stops, poke the accept loop
                        // (blocked in `accept`) so it sees the flag.
                        if service.stopping() && !woken.swap(true, Ordering::SeqCst) {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                })
                .expect("spawn handler")
        }));
        Ok(Front { addr, threads })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the service stops and every connection has closed.
    pub fn join(self) {
        for h in self.threads {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, service: &impl Service, conns: &BoundedQueue<TcpStream>) {
    for stream in listener.incoming() {
        if service.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        match conns.try_push_or_return(stream) {
            Ok(()) => {}
            // The handler pool and its backlog are saturated: refuse
            // fast instead of growing without bound.
            Err((mut stream, PushError::Full)) => {
                let _ = service.overloaded().write(&mut stream, true);
            }
            Err((_, PushError::Closed)) => break,
        }
    }
    conns.close();
}

fn serve_connection(
    stream: TcpStream,
    service: &impl Service,
    (read_timeout, write_timeout): (Duration, Duration),
) -> io::Result<()> {
    stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
    stream.set_write_timeout(Some(write_timeout.max(Duration::from_millis(1))))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Keep-alive loop: one iteration per exchange. `Ok(None)` from the
    // reader is a clean end (peer closed, or sat idle past the read
    // timeout); a framing error gets a best-effort 400 and a close —
    // the front never hangs on, or propagates, malformed bytes.
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(_) => {
                let bad = Reply::error(400, "malformed_request", "unparseable HTTP request");
                let _ = bad.write(&mut writer, true);
                return Ok(());
            }
        };
        // Decided before routing, so a request read before the service
        // began to stop is still answered keep-alive.
        let close = req.wants_close() || service.stopping();
        // A panicking route costs its exchange and connection, not the
        // handler thread, which no one would replace.
        let reply = match catch_unwind(AssertUnwindSafe(|| service.route(&req))) {
            Ok(Some(reply)) => reply,
            Ok(None) => match req.method.as_str() {
                "GET" | "POST" => Reply::error(404, "not_found", &req.path),
                _ => Reply::error(405, "method_not_allowed", &req.method),
            },
            Err(_) => {
                Reply::error(500, "internal_error", "the request's handler panicked").closing()
            }
        };
        if reply.write(&mut writer, close)? {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn eof_before_request_is_none() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn response_framing() {
        let out = render_response(
            429,
            &[("Retry-After", "1".to_string())],
            "application/json",
            b"{}",
            true,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn render_selects_keep_alive_or_close() {
        let keep =
            String::from_utf8(render_response(200, &[], "text/plain", b"ok", false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        let close =
            String::from_utf8(render_response(200, &[], "text/plain", b"ok", true)).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
    }

    #[test]
    fn wants_close_reads_the_connection_header() {
        let raw = b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(read_request(&mut r).unwrap().unwrap().wants_close());
        let raw = b"GET / HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(!read_request(&mut r).unwrap().unwrap().wants_close());
    }

    #[test]
    fn idle_timeout_before_any_byte_is_a_clean_close() {
        struct TimesOut;
        impl io::Read for TimesOut {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"))
            }
        }
        let mut r = BufReader::new(TimesOut);
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn a_panicking_route_answers_500_and_keeps_its_handler() {
        struct Panics;
        impl Service for Panics {
            fn route(&self, req: &Request) -> Option<Reply> {
                assert_ne!(req.path, "/boom", "route panics on /boom");
                Some(Reply::json(200, "{}"))
            }
            fn stopping(&self) -> bool {
                false
            }
            fn overloaded(&self) -> Reply {
                Reply::error(503, "overloaded", "busy")
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let timeouts = (Duration::from_secs(5), Duration::from_secs(5));
        // One handler thread: the second exchange needs the same one.
        let front = Front::start("panics", listener, Arc::new(Panics), 1, timeouts).unwrap();
        let exchange = |path: &str| {
            let mut stream = TcpStream::connect(front.addr()).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut answer = String::new();
            io::Read::read_to_string(&mut stream, &mut answer).unwrap();
            answer
        };
        let boom = exchange("/boom");
        assert!(
            boom.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "{boom}"
        );
        assert!(boom.contains("Connection: close\r\n"), "{boom}");
        assert!(boom.contains("\"error\":\"internal_error\""), "{boom}");
        let ok = exchange("/ok");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    }
}
