//! HTTP scrape sidecar: `GET /metrics` → OpenMetrics text.
//!
//! A [`ScrapeListener`] rides alongside a [`crate::PmcdServer`] and
//! serves the *same* exposition document the server answers to
//! `Pdu::Exposition` — one renderer, two transports, so `curl` and a
//! Prometheus scraper can watch the daemon without speaking the PDU
//! protocol (README "Watching it run").
//!
//! The HTTP surface is deliberately tiny: one request per connection,
//! `GET /metrics` (or `/`) answered with `200` and
//! `application/openmetrics-text`, unknown paths with `404`, non-GET
//! methods with `405`, a malformed request line with `400`, always
//! `Connection: close`. The transport is the PDU server's connection
//! service (`pool::Service`): the same accept loop, [`BoundedQueue`],
//! worker pool and shutdown — accepted sockets queue for a small worker
//! pool, and when the queue is full the connection is shed at the door
//! with `503` (counted by `wire.scrape.shed`).
//!
//! [`ScrapeListener::bind_handler`] generalises the route table: a
//! handler maps `(path, query)` to [`HttpResponse`]s, which is how the
//! fleet aggregator hangs its `/debug/*` diagnostics plane (DESIGN.md
//! §16) off the same transport. Served `/debug/*` responses are
//! tallied by `wire.debug.requests` / `wire.debug.bytes`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::pool::{BoundedQueue, Service};
use crate::server::{PmcdServer, WireConfig};

/// OpenMetrics content type served with every `200`.
pub const CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// A route table: maps a request's `(path, query)` — the request-target
/// split once at its first `?`, query empty when absent — to a
/// response, or `None` for 404. Handlers run on listener workers, so
/// they must be cheap and must never block on locks held across I/O.
pub type RequestHandler = Arc<dyn Fn(&str, &str) -> Option<HttpResponse> + Send + Sync>;

/// One response as produced by a [`RequestHandler`]; the listener owns
/// status-line/header framing (byte-exact `Content-Length`,
/// `Connection: close`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// Reason phrase on the status line.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: u16, reason: &'static str, body: String) -> Self {
        HttpResponse {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

/// Largest request head (request line + headers) read before answering;
/// anything longer is malformed for this endpoint.
const MAX_REQUEST_BYTES: usize = 4096;

/// Per-connection read/write timeout — a stalled scraper must not wedge
/// a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The HTTP sidecar serving a PMCD's exposition.
pub struct ScrapeListener {
    service: Service,
}

impl ScrapeListener {
    /// Bind next to `server`, serving its exposition on `/metrics` and
    /// `/` with a small pool (2 workers, 16 pending connections) —
    /// scrapes are periodic, not a fleet.
    pub fn bind<A: ToSocketAddrs>(addr: A, server: &PmcdServer) -> std::io::Result<Self> {
        let shared = server.shared();
        let handler: RequestHandler = Arc::new(move |path: &str, _query: &str| {
            (path == "/metrics" || path == "/")
                .then(|| HttpResponse::ok(CONTENT_TYPE, shared.exposition()))
        });
        Self::bind_handler(
            addr,
            handler,
            WireConfig {
                workers: 2,
                pending: 16,
            },
        )
    }

    /// Bind serving an arbitrary route table. The fleet tier serves its
    /// merged document *and* the `/debug/*` diagnostics plane through
    /// one of these.
    pub fn bind_handler<A: ToSocketAddrs>(
        addr: A,
        handler: RequestHandler,
        config: WireConfig,
    ) -> std::io::Result<Self> {
        let service = Service::start(
            TcpListener::bind(addr)?,
            "pmcd-scrape",
            config.workers,
            Arc::new(BoundedQueue::new(config.pending)),
            move |stream| serve_scrape(&handler, stream),
            shed,
        )?;
        Ok(ScrapeListener { service })
    }

    /// The address to point `curl`/Prometheus at.
    pub fn local_addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    /// Stop accepting, drain queued connections, join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.service.shutdown();
    }
}

/// Queue full: answer 503 and close, mirroring the PDU server's
/// shed-at-the-door policy.
fn shed(mut stream: TcpStream) {
    obs::counter!("wire.scrape.requests").inc();
    obs::counter!("wire.scrape.shed").inc();
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let busy = HttpResponse::text(503, "Service Unavailable", "scraper at capacity\n".into());
    let _ = stream.write_all(frame(&busy).as_bytes());
}

/// Read one request head and answer it. Never panics on client
/// misbehaviour; every path ends with the connection closed.
fn serve_scrape(handler: &RequestHandler, mut stream: TcpStream) {
    obs::counter!("wire.scrape.requests").inc();
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let reply = match read_request_line(&mut stream) {
        RequestLine::Get(target) => {
            // The one place a request-target is split into path + query.
            let (path, query) = target.split_once('?').unwrap_or((&target, ""));
            match handler(path, query) {
                Some(r) => {
                    if path.starts_with("/debug/") {
                        obs::counter!("wire.debug.requests").inc();
                        obs::counter!("wire.debug.bytes").add(r.body.len() as u64);
                    }
                    frame(&r)
                }
                None => frame(&HttpResponse::text(
                    404,
                    "Not Found",
                    format!("no route {target}\n"),
                )),
            }
        }
        RequestLine::BadMethod(method) => frame(&HttpResponse::text(
            405,
            "Method Not Allowed",
            format!("method {method} not allowed; this endpoint is GET-only\n"),
        )),
        RequestLine::Malformed => frame(&HttpResponse::text(
            400,
            "Bad Request",
            "malformed request\n".into(),
        )),
    };
    let _ = stream.write_all(reply.as_bytes());
}

/// A classified HTTP request line.
enum RequestLine {
    /// A well-formed `GET <target> HTTP/1.x`.
    Get(String),
    /// A well-formed request line with a recognisable non-GET method
    /// token — answered `405`, not `400`, so a probing client learns
    /// the endpoint exists but is read-only.
    BadMethod(String),
    /// Anything else (truncated head, oversized head, not HTTP).
    Malformed,
}

/// Read up to the end of the request head and classify the request
/// line.
fn read_request_line(stream: &mut TcpStream) -> RequestLine {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() >= MAX_REQUEST_BYTES {
            return RequestLine::Malformed;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return RequestLine::Malformed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let Some(request_line) = head.lines().next() else {
        return RequestLine::Malformed;
    };
    let mut parts = request_line.split(' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/1.") => {
            RequestLine::Get(path.to_owned())
        }
        (Some(method), Some(_), Some(version))
            if version.starts_with("HTTP/1.")
                && !method.is_empty()
                && method.bytes().all(|b| b.is_ascii_uppercase()) =>
        {
            RequestLine::BadMethod(method.to_owned())
        }
        _ => RequestLine::Malformed,
    }
}

/// Frame a response on the wire: status line, headers with a byte-exact
/// `Content-Length`, and `Connection: close` (every exchange is
/// single-shot).
fn frame(r: &HttpResponse) -> String {
    format!(
        "HTTP/1.1 {} {}\r\n\
         Content-Type: {}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {}",
        r.status,
        r.reason,
        r.content_type,
        r.body.len(),
        r.body
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_carries_status_headers_and_body() {
        let r = frame(&HttpResponse::ok(CONTENT_TYPE, "# EOF\n".into()));
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 6\r\n"));
        assert!(r.contains(CONTENT_TYPE));
        assert!(r.ends_with("\r\n\r\n# EOF\n"));
        let nf = frame(&HttpResponse::text(
            404,
            "Not Found",
            "no route /x\n".into(),
        ));
        assert!(nf.contains("text/plain"));
    }

    #[test]
    fn content_length_counts_bytes_not_chars() {
        // A label value can carry multi-byte UTF-8; the frame must
        // advertise the byte length or a strict client truncates.
        let body = "x{k=\"h\u{00e9}\"} 1\n"; // é is 2 bytes
        let r = frame(&HttpResponse::ok(CONTENT_TYPE, body.into()));
        let expected = format!("Content-Length: {}\r\n", body.len());
        assert!(body.len() > body.chars().count());
        assert!(r.contains(&expected), "frame was: {r}");
    }

    fn config(workers: usize, pending: usize) -> WireConfig {
        WireConfig { workers, pending }
    }

    /// The canonical `/metrics` + `/` route table over a fixed document.
    fn eof_metrics() -> RequestHandler {
        Arc::new(|path: &str, _query: &str| {
            (path == "/metrics" || path == "/")
                .then(|| HttpResponse::ok(CONTENT_TYPE, "# EOF\n".into()))
        })
    }

    /// One-shot HTTP GET against a real listener socket, returning
    /// (status, headers, body).
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        (status, head.to_string(), body.to_string())
    }

    #[test]
    fn listener_routes_and_frames_over_a_real_socket() {
        let listener = ScrapeListener::bind_handler("127.0.0.1:0", eof_metrics(), config(1, 4))
            .expect("bind handler");
        let addr = listener.local_addr();

        let (status, head, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert_eq!(body, "# EOF\n");
        assert!(head.contains(&format!("Content-Length: {}", body.len())));

        // Unknown paths are 404, not a misrouted exposition, and the
        // advertised Content-Length matches the actual body bytes.
        let (status, head, body) = http_get(addr, "/unknown/path");
        assert_eq!(status, 404);
        assert!(!body.contains("# EOF"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
    }

    /// One-shot request with an arbitrary request line.
    fn http_raw(addr: SocketAddr, request_line: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
        stream
            .write_all(format!("{request_line}\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        (status, head.to_string(), body.to_string())
    }

    #[test]
    fn non_get_methods_get_405_not_400() {
        let listener = ScrapeListener::bind_handler("127.0.0.1:0", eof_metrics(), config(1, 4))
            .expect("bind handler");
        let addr = listener.local_addr();

        for method in ["POST", "PUT", "DELETE", "HEAD", "OPTIONS"] {
            let (status, _, body) = http_raw(addr, &format!("{method} /metrics HTTP/1.1"));
            assert_eq!(status, 405, "{method} must be rejected as a method");
            assert!(body.contains(method), "{method} named in the 405 body");
        }
        // Garbage that isn't a plausible method token stays 400.
        let (status, _, _) = http_raw(addr, "get /metrics HTTP/1.1");
        assert_eq!(status, 400);
        let (status, _, _) = http_raw(addr, "TOTALLY BOGUS");
        assert_eq!(status, 400);
    }

    #[test]
    fn handler_routes_debug_endpoints_with_byte_exact_content_length() {
        // A /debug body with multi-byte UTF-8: the advertised
        // Content-Length must count bytes, or strict clients truncate.
        let debug_body = "pass 1: stragg\u{00e9}r tellico-0007 \u{2014} 42 ns\n";
        assert!(debug_body.len() > debug_body.chars().count());
        let routed = debug_body.to_string();
        let handler: RequestHandler = Arc::new(move |path: &str, _query: &str| match path {
            "/metrics" => Some(HttpResponse::ok(CONTENT_TYPE, "# EOF\n".into())),
            "/debug/passes" => Some(HttpResponse::text(200, "OK", routed.clone())),
            _ => None,
        });
        let listener = ScrapeListener::bind_handler("127.0.0.1:0", handler, config(1, 4))
            .expect("bind handler");
        let addr = listener.local_addr();

        let (status, head, body) = http_get(addr, "/debug/passes");
        assert_eq!(status, 200);
        assert_eq!(body, debug_body);
        assert!(
            head.contains(&format!("Content-Length: {}\r", debug_body.len())),
            "byte-exact Content-Length missing from: {head}"
        );

        let (status, _, _) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let (status, _, _) = http_get(addr, "/debug/unknown");
        assert_eq!(status, 404);
    }

    /// With the one worker held inside a handler and the one queue slot
    /// taken, the next connection is shed at the door with `503`; the
    /// held and the queued request are both answered once released.
    #[test]
    fn a_full_queue_sheds_the_next_connection_with_503() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handler: RequestHandler = Arc::new(move |_path: &str, _query: &str| {
            let _ = entered_tx.send(());
            let _ = release_rx.lock().expect("release lock").recv();
            Some(HttpResponse::ok(CONTENT_TYPE, "# EOF\n".into()))
        });
        let listener = ScrapeListener::bind_handler("127.0.0.1:0", handler, config(1, 1))
            .expect("bind handler");
        let addr = listener.local_addr();
        // Declared after the listener, so a failed assertion drops it
        // first: that frees the held worker the listener's drop joins.
        let release_tx = release_tx;

        let held = std::thread::spawn(move || http_get(addr, "/metrics"));
        entered_rx.recv().expect("worker entered the handler");
        let mut queued = TcpStream::connect(addr).expect("connect queued");
        queued
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send queued request");

        // The shed closes without reading the request; a client that had
        // sent one could see the close as a reset and lose the 503, so
        // this one only reads.
        let mut shed = TcpStream::connect(addr).expect("connect shed");
        let mut raw = String::new();
        shed.read_to_string(&mut raw).expect("shed response");
        assert!(
            raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{raw}"
        );
        assert!(raw.ends_with("\r\n\r\nscraper at capacity\n"), "{raw}");

        release_tx.send(()).expect("release held");
        release_tx.send(()).expect("release queued");
        assert_eq!(held.join().expect("held request").0, 200);
        let mut raw = String::new();
        queued.read_to_string(&mut raw).expect("queued response");
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    }

    /// The wake-up connect reaches a listener bound to every interface.
    #[test]
    fn listener_bound_on_the_unspecified_address_shuts_down() {
        let mut listener = ScrapeListener::bind_handler("0.0.0.0:0", eof_metrics(), config(1, 4))
            .expect("bind 0.0.0.0");
        assert!(listener.local_addr().ip().is_unspecified());
        listener.shutdown();
    }
}
