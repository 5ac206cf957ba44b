//! A blocking loopback HTTP client for the storm driver, the CI smoke
//! jobs, and tests.
//!
//! Two layers:
//!
//! * [`request`] / [`submit_job`] — the original one-exchange dialect:
//!   connect, send one request with `Connection: close`, read one
//!   response, done.
//! * [`Connection`] + [`RetryPolicy`] + [`submit_with_retry`] — the
//!   self-healing layer: keep-alive connections that transparently
//!   reconnect on failure, and bounded retries with exponential backoff
//!   and deterministic jitter that honor `Retry-After`. Retrying a job
//!   submission is safe because jobs are content-addressed: the server
//!   dedups re-submissions against its cache and in-flight table, so a
//!   retried job is never double-executed or answered with someone
//!   else's bytes.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use recon_isa::rng::{Rng, SplitMix64};

use crate::http::MAX_BODY;

/// One parsed HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body as UTF-8 (the service only produces UTF-8).
    pub body: String,
}

impl Response {
    /// The first header with the given (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one response from `reader`. Shared by the one-shot and
/// keep-alive paths; returns `InvalidData` for malformed framing, which
/// the retry layer treats as a transport fault.
fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {status_line:?}"),
            )
        })?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
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
            "response body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Sends one request over a fresh connection and reads the response
/// (`Connection: close` semantics).
///
/// # Errors
///
/// Connection/stream I/O errors, or `InvalidData` for malformed
/// response framing.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Response> {
    exchange(addr, method, path, None, body.unwrap_or("").as_bytes())
}

/// Submits a job (`POST /jobs`) from its JSON text.
///
/// # Errors
///
/// As [`request`].
pub fn submit_job(addr: SocketAddr, json: &str) -> io::Result<Response> {
    request(addr, "POST", "/jobs", Some(json))
}

/// As [`request`], but with an arbitrary binary body and explicit
/// content type — used to ship raw RCK1 checkpoint bytes to a node's
/// `POST /migrate` endpoint, where UTF-8 framing would corrupt the
/// payload.
///
/// # Errors
///
/// As [`request`].
pub fn request_bytes(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<Response> {
    exchange(addr, method, path, Some(content_type), body)
}

/// The one-shot exchange behind [`request`] and [`request_bytes`]: a
/// `Content-Type` line only when one is given.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let content_type = content_type.map_or_else(String::new, |t| format!("Content-Type: {t}\r\n"));
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: recon\r\n{content_type}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    (&stream).write_all(&wire)?;
    read_response(&mut BufReader::new(stream))
}

/// A keep-alive connection that reconnects on failure.
///
/// The connection is established lazily, reused across requests, and
/// dropped on any transport or framing error so the next request dials
/// fresh — the caller never has to manage connection state.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    timeout: Duration,
    connects: u64,
}

impl Connection {
    /// Creates a (not-yet-dialed) connection to `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Connection::with_timeout(addr, Duration::from_secs(60))
    }

    /// As [`new`](Self::new), with an explicit per-I/O timeout.
    #[must_use]
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        Connection {
            addr,
            stream: None,
            timeout,
            connects: 0,
        }
    }

    /// TCP connections dialed so far (1 for a healthy session; each
    /// reconnect after a failure adds 1).
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    fn ensure(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    /// Sends one request over the persistent connection and reads the
    /// response. On any error the cached connection is dropped, so the
    /// next call reconnects from scratch.
    ///
    /// # Errors
    ///
    /// Connection/stream I/O errors, or `InvalidData` for malformed
    /// response framing (e.g. the server's bytes were corrupted in
    /// flight).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let result = self.request_inner(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let reader = self.ensure()?;
        let payload = body.unwrap_or("");
        {
            let stream = reader.get_mut();
            write!(
                stream,
                "{method} {path} HTTP/1.1\r\nHost: recon\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{payload}",
                payload.len()
            )?;
            stream.flush()?;
        }
        let response = read_response(reader)?;
        if response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Bounded-retry parameters: exponential backoff with deterministic
/// jitter, honoring `Retry-After` (capped so second-granularity server
/// hints don't stall millisecond-scale harnesses).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up (minimum 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` starts at `base_delay << n`.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Upper bound applied to server `Retry-After` hints.
    pub retry_after_cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Fail immediately on `ConnectionRefused` instead of retrying.
    ///
    /// Refused means "nothing is listening" — the node is down, not
    /// busy — and retrying against a dead socket only delays whoever
    /// could reroute the job to a live node. Set to `false` for
    /// single-server harnesses that want to ride out a restart.
    pub fail_fast_refused: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            retry_after_cap: Duration::from_millis(500),
            seed: 0,
            fail_fast_refused: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (0-based: the sleep
    /// after the first failure is `backoff(0, ..)`) for request `key`.
    ///
    /// Deterministic: a fixed `(seed, key, attempt)` always yields the
    /// same duration. The jitter is drawn uniformly from the upper half
    /// of the exponential window (`[cap/2, cap]`), the standard
    /// "equal jitter" scheme — enough spread to break retry herds,
    /// never so little backoff that the server is hammered.
    #[must_use]
    pub fn backoff(&self, attempt: u32, key: u64) -> Duration {
        let shift = attempt.min(20);
        let cap = self
            .base_delay
            .saturating_mul(1u32 << shift.min(31))
            .min(self.max_delay);
        let cap_micros = u64::try_from(cap.as_micros()).unwrap_or(u64::MAX);
        let half = cap_micros / 2;
        let mut rng = SplitMix64::new(
            self.seed
                ^ key.rotate_left(23)
                ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let jitter = if half == 0 {
            0
        } else {
            rng.next_u64() % (half + 1)
        };
        Duration::from_micros(half + jitter)
    }

    /// The sleep to apply for a `Retry-After: <seconds>` hint.
    #[must_use]
    pub fn retry_after(&self, header: &str) -> Duration {
        let hinted = header
            .trim()
            .parse::<u64>()
            .map_or(self.retry_after_cap, Duration::from_secs);
        hinted.min(self.retry_after_cap)
    }
}

/// The outcome of a retried submission.
#[derive(Clone, Debug)]
pub struct Retried {
    /// The final response. Usually non-retriable; when every attempt
    /// drew backpressure this is the last `429`/`503` (with its
    /// `Retry-After` hint intact) so the caller can relay it instead of
    /// inventing an error — the node was *busy*, not down.
    pub response: Response,
    /// Attempts consumed, including the successful one.
    pub attempts: u32,
    /// `429` answers among the attempts (a final one included).
    pub backpressure_429: u32,
}

/// Submits a job over `conn`, retrying transport faults (connection
/// drops, truncated or garbage responses) and backpressure (`429`,
/// `503`) with the policy's backoff schedule. `key` should be a stable
/// identifier for the job (the spec digest) so jitter is deterministic
/// per job; `sleep` is injectable so tests can capture the schedule
/// instead of waiting it out.
///
/// "Node down" and "node busy" are kept distinct: `ConnectionRefused`
/// returns immediately when [`RetryPolicy::fail_fast_refused`] is set
/// (so a gateway can reroute instead of burning backoff against a dead
/// socket), while exhausted backpressure returns the final `429`/`503`
/// response as `Ok` — a busy node answered, and its `Retry-After` hint
/// belongs to the caller.
///
/// # Errors
///
/// `ConnectionRefused` immediately under fail-fast, otherwise the last
/// transport error once `max_attempts` is exhausted.
pub fn submit_with_retry(
    conn: &mut Connection,
    json: &str,
    key: u64,
    policy: &RetryPolicy,
    sleep: &mut dyn FnMut(Duration),
) -> io::Result<Retried> {
    let max_attempts = policy.max_attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    let mut backpressure_429 = 0;
    for attempt in 0..max_attempts {
        match conn.request("POST", "/jobs", Some(json)) {
            Ok(response) if response.status == 429 || response.status == 503 => {
                backpressure_429 += u32::from(response.status == 429);
                if attempt + 1 < max_attempts {
                    let delay = response
                        .header("retry-after")
                        .map_or_else(|| policy.backoff(attempt, key), |h| policy.retry_after(h));
                    sleep(delay);
                } else {
                    return Ok(Retried {
                        response,
                        attempts: attempt + 1,
                        backpressure_429,
                    });
                }
            }
            Ok(response) => {
                return Ok(Retried {
                    response,
                    attempts: attempt + 1,
                    backpressure_429,
                })
            }
            Err(e) if policy.fail_fast_refused && e.kind() == io::ErrorKind::ConnectionRefused => {
                return Err(e);
            }
            Err(e) => {
                last_err = Some(e);
                if attempt + 1 < max_attempts {
                    sleep(policy.backoff(attempt, key));
                }
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no attempts made")))
}

/// Sums every sample of the metric `name` in a Prometheus text
/// exposition, with or without labels (`name 3`, `name{node="a"} 3`).
/// Only whole names match: `name_suffix` is another metric. `None` when
/// no sample of `name` is present.
#[must_use]
pub fn scrape(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = match rest.strip_prefix('{') {
                Some(labelled) => labelled.split_once("} ")?.1,
                None => rest.strip_prefix(' ')?,
            };
            value.trim().parse::<f64>().ok()
        })
        .fold(None, |total, v| Some(total.unwrap_or(0) + v as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_requests_keep_their_wire_bytes() {
        let expected: [&[u8]; 2] = [
            b"POST /jobs HTTP/1.1\r\nHost: recon\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            b"POST /migrate HTTP/1.1\r\nHost: recon\r\nContent-Type: application/octet-stream\r\nContent-Length: 3\r\nConnection: close\r\n\r\n\x00\x01\x02",
        ];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            expected.map(|want| {
                let (mut stream, _) = listener.accept().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut got = vec![0u8; want.len()];
                io::Read::read_exact(&mut stream, &mut got).unwrap();
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
                    .unwrap();
                // Anything past the expected bytes is a difference too.
                io::Read::read_to_end(&mut stream, &mut got).unwrap();
                got
            })
        });
        assert_eq!(
            request(addr, "POST", "/jobs", Some("{}")).unwrap().status,
            200
        );
        let binary = request_bytes(
            addr,
            "POST",
            "/migrate",
            "application/octet-stream",
            &[0, 1, 2],
        );
        assert_eq!(binary.unwrap().status, 200);
        assert_eq!(server.join().unwrap(), expected.map(<[u8]>::to_vec));
    }

    #[test]
    fn scrape_counter_matches_whole_names() {
        let text = "recon_cache_hits_total 7\nrecon_cache_hits_total_suffix 9\n";
        assert_eq!(scrape(text, "recon_cache_hits_total"), Some(7));
        assert_eq!(scrape(text, "recon_cache"), None);
        assert_eq!(scrape(text, "recon_cache_misses_total"), None);

        // Cluster nodes label every sample; all of a name's samples sum.
        let text = "# TYPE recon_jobs_inflight gauge\n\
                    recon_jobs_inflight{node=\"127.0.0.1:7001\"} 2\n\
                    recon_jobs_inflight{node=\"127.0.0.1:7002\"} 3\n\
                    recon_jobs_inflight_peak{node=\"127.0.0.1:7001\"} 9\n";
        assert_eq!(scrape(text, "recon_jobs_inflight"), Some(5));
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let a: Vec<Duration> = (0..6).map(|n| policy.backoff(n, 7)).collect();
        let b: Vec<Duration> = (0..6).map(|n| policy.backoff(n, 7)).collect();
        assert_eq!(a, b, "same (seed, key, attempt) ⇒ same schedule");
        let c: Vec<Duration> = (0..6).map(|n| policy.backoff(n, 8)).collect();
        assert_ne!(a, c, "different keys jitter differently");
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            seed: 1,
            ..RetryPolicy::default()
        };
        for n in 0..10 {
            let d = policy.backoff(n, 0);
            let cap = Duration::from_millis(10)
                .saturating_mul(1 << n.min(31))
                .min(Duration::from_millis(100));
            assert!(
                d >= cap / 2 && d <= cap,
                "attempt {n}: {d:?} not in [{:?}, {cap:?}]",
                cap / 2
            );
        }
        // Past the cap the window stops growing.
        assert!(policy.backoff(30, 0) <= Duration::from_millis(100));
    }

    #[test]
    fn retry_after_is_honored_but_capped() {
        let policy = RetryPolicy {
            retry_after_cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.retry_after("0"), Duration::from_secs(0));
        assert_eq!(policy.retry_after("1"), Duration::from_millis(50));
        assert_eq!(policy.retry_after("garbage"), Duration::from_millis(50));
    }

    #[test]
    fn retries_follow_the_backoff_schedule_with_injected_clock() {
        // A server that always answers 429 without Retry-After: the
        // client must sleep exactly the deterministic backoff schedule.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // One persistent connection, three 429s.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for _ in 0..3 {
                let req = crate::http::read_request(&mut reader).unwrap().unwrap();
                assert_eq!(req.method, "POST");
                let mut w = &stream;
                w.write_all(&crate::http::render_response(
                    429,
                    &[],
                    "application/json",
                    b"{\"error\":\"queue full\"}",
                    false,
                ))
                .unwrap();
                w.flush().unwrap();
            }
        });

        let policy = RetryPolicy {
            max_attempts: 3,
            seed: 99,
            ..RetryPolicy::default()
        };
        let mut conn = Connection::new(addr);
        let mut slept: Vec<Duration> = Vec::new();
        let out = submit_with_retry(&mut conn, "{\"kind\":\"run\"}", 1234, &policy, &mut |d| {
            slept.push(d)
        })
        .unwrap();
        // Exhausted backpressure hands back the final 429 — the node
        // was busy, not down.
        assert_eq!(out.response.status, 429);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.backpressure_429, 3);
        server.join().unwrap();

        // Two sleeps (no sleep after the final attempt), matching the
        // policy's schedule exactly.
        assert_eq!(
            slept,
            vec![policy.backoff(0, 1234), policy.backoff(1, 1234)]
        );
        // All three exchanges rode one keep-alive connection.
        assert_eq!(conn.connects(), 1);
    }

    #[test]
    fn connection_refused_fails_fast_by_default() {
        // Bind then immediately drop a listener: the port is known-dead,
        // so connects are refused rather than timing out.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let mut conn = Connection::new(addr);
        let mut slept: Vec<Duration> = Vec::new();
        let err = submit_with_retry(&mut conn, "{}", 7, &RetryPolicy::default(), &mut |d| {
            slept.push(d)
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(
            slept.is_empty(),
            "a dead node must not consume backoff: {slept:?}"
        );
    }

    #[test]
    fn connection_refused_is_retried_when_fail_fast_is_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let policy = RetryPolicy {
            max_attempts: 3,
            fail_fast_refused: false,
            ..RetryPolicy::default()
        };
        let mut conn = Connection::new(addr);
        let mut slept: Vec<Duration> = Vec::new();
        let err =
            submit_with_retry(&mut conn, "{}", 7, &policy, &mut |d| slept.push(d)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(slept.len(), 2, "legacy behavior: backoff between attempts");
    }

    #[test]
    fn connection_reconnects_after_server_drop() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: read the request, then slam the door.
            // Both handles go: the reader's clone alone keeps it open.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = crate::http::read_request(&mut reader);
            drop(reader);
            drop(stream);
            // Second connection: answer properly.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = crate::http::read_request(&mut reader).unwrap().unwrap();
            let mut w = &stream;
            w.write_all(&crate::http::render_response(
                200,
                &[],
                "application/json",
                b"{\"ok\":true}",
                false,
            ))
            .unwrap();
        });

        let mut conn = Connection::new(addr);
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let out = submit_with_retry(&mut conn, "{}", 0, &policy, &mut |_| {}).unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.attempts, 2, "one failed attempt, one success");
        assert_eq!(conn.connects(), 2, "reconnected after the drop");
        server.join().unwrap();
    }
}
