//! An optional, std-only `/metrics` scrape endpoint.
//!
//! [`serve`] binds a [`std::net::TcpListener`] on a background thread and
//! answers every `GET /metrics` with a copy of the registry's live digest
//! rendered in Prometheus text exposition format 0.0.4
//! ([`crate::metrics::render`]). The server is read-only derived state: it
//! never feeds back into the run, so scraping cannot perturb determinism.
//!
//! The implementation is deliberately minimal — HTTP/1.0 semantics, one
//! connection at a time, `Connection: close` — because its only clients are
//! `curl` in CI and a Prometheus scraper on a trusted host.

use crate::metrics::{self, MetricsRegistry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running metrics endpoint. Dropping the handle (or calling
/// [`MetricsServer::shutdown`]) stops the listener thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful when serving on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept() by poking the listener ourselves.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `registry` over HTTP at `addr` (e.g. `127.0.0.1:9184`, or port 0
/// for an OS-assigned port) on a background thread.
///
/// # Errors
/// Fails when the address cannot be bound.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: MetricsRegistry,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name("metaopt-metrics".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // A hung client must not wedge the endpoint.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = answer(stream, &registry);
                }
            }
        })?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Most bytes of request head (request line and headers) read from one
/// client. A scrape's head is under 200 bytes; the bound keeps a client
/// that never sends the blank line from growing the server's buffer.
const MAX_HEAD: u64 = 8 * 1024;

fn answer(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    let (status, body) = match request_line(&stream)? {
        None => ("400 Bad Request", "bad request\n".to_string()),
        Some(line) => match line.split_whitespace().nth(1) {
            Some("/metrics" | "/") => ("200 OK", metrics::render(&registry.report())),
            _ => ("404 Not Found", "not found\n".to_string()),
        },
    };
    // One write: closing with part of a refused request unread resets the
    // connection, and a reset discards whatever is still unsent.
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Read the request head up to its blank line, so the client sees a clean
/// close, and return the request line. `None` when the head runs past
/// [`MAX_HEAD`] bytes or the request line is not UTF-8.
fn request_line(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD));
    let mut request_line = Vec::new();
    reader.read_until(b'\n', &mut request_line)?;
    let mut header = Vec::new();
    loop {
        header.clear();
        if reader.read_until(b'\n', &mut header)? == 0 {
            // The client stopped sending, or the head reached the bound.
            if reader.get_ref().limit() == 0 {
                return Ok(None);
            }
            break;
        }
        if header == b"\r\n" || header == b"\n" {
            break;
        }
    }
    Ok(String::from_utf8(request_line).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Tracer};
    use std::io::Read;

    /// Fold `n` evaluations of 1µs each into `registry`.
    fn evaluate(registry: &MetricsRegistry, n: u64) {
        let t = Tracer::disabled().with_metrics(registry.clone());
        for case in 0..n {
            t.emit(Event::Eval {
                gen: 0,
                genome: "g".to_string(),
                case,
                outcome: crate::schema::OUTCOME_SCORE.to_string(),
                score: Some(1.0),
                objectives: None,
                warm: None,
                dur_ns: 1000,
            });
        }
    }

    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_prometheus_exposition() {
        let registry = MetricsRegistry::new();
        evaluate(&registry, 7);
        let mut server = serve("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.local_addr();

        let response = fetch(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response
            .contains("# TYPE metaopt_evaluations_total counter\nmetaopt_evaluations_total 7\n"));
        assert!(response.contains("metaopt_eval_latency_ns{quantile=\"0.5\"} 1000\n"));

        // Scrapes observe live updates.
        evaluate(&registry, 3);
        assert!(fetch(addr, "/metrics").contains("metaopt_evaluations_total 10\n"));

        assert!(fetch(addr, "/nope").starts_with("HTTP/1.0 404"));

        server.shutdown();
        // After shutdown the port stops answering (connect may succeed
        // briefly on some platforms; a second shutdown is a no-op).
        server.shutdown();
    }

    /// Send `request` from a second thread and return the response. The
    /// server may close with part of an oversized request unread, and the
    /// reset that follows ends the read like a close.
    fn send_raw(addr: SocketAddr, request: Vec<u8>) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || writer.write_all(&request).is_ok());
        let mut response = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            response.extend_from_slice(&buf[..n]);
        }
        sender.join().unwrap();
        String::from_utf8_lossy(&response).into_owned()
    }

    #[test]
    fn oversized_or_malformed_request_heads_are_refused() {
        let registry = MetricsRegistry::new();
        evaluate(&registry, 7);
        let mut server = serve("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr();
        let long_line = vec![b'A'; 1 << 20];
        let not_utf8 = b"GET /metrics\xff\xfe HTTP/1.0\r\n\r\n".to_vec();
        let many_headers = [
            b"GET /metrics HTTP/1.0\r\n".to_vec(),
            b"X-Pad: 1\r\n".repeat(10_000),
            b"\r\n".to_vec(),
        ]
        .concat();
        for (name, request) in [
            ("a 1 MiB request line without a newline", long_line),
            ("a request line that is not UTF-8", not_utf8),
            ("10,000 header lines", many_headers),
        ] {
            let response = send_raw(addr, request);
            assert!(
                response.starts_with("HTTP/1.0 400 "),
                "{name}: {response:?}"
            );
            // The endpoint still serves the next scrape.
            let next = fetch(addr, "/metrics");
            assert!(
                next.starts_with("HTTP/1.0 200 OK\r\n"),
                "after {name}: {next}"
            );
            assert!(next.contains("metaopt_evaluations_total 7\n"), "{next}");
        }
        server.shutdown();
    }
}
