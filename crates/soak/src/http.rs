//! Dependency-free observability endpoint.
//!
//! A single background thread accepts plain HTTP/1.1 connections on
//! `127.0.0.1` and serves three read-only routes off the fleet's
//! published shard snapshots:
//!
//! * `GET /metrics` — Prometheus text exposition (fleet-aggregated,
//!   `shard="i"` labels on every series).
//! * `GET /healthz` — `ok` while every shard is healthy, `503` once any
//!   shard has died on an error.
//! * `GET /status`  — a JSON fleet summary for humans and scripts.
//!
//! The listener is non-blocking and polls a stop flag every few
//! milliseconds, so shutdown is prompt and the server never outlives the
//! soak. A scrape renders from the published snapshots by reference,
//! under their locks: it never touches a VM, copies no history, and can
//! delay a shard's next publish by at most one render. The request head
//! gets one `DEADLINE` overall (`408` on expiry, `431` past 8 KiB, `400`
//! for a request line without a method and a path), and the response
//! another, so no client — slow to send or never reading — can hold the
//! serving thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::shard::{lock_snapshot, with_snapshots, ShardSnapshot};

/// How long one connection may take to send its request head, and again
/// to take its response.
const DEADLINE: Duration = Duration::from_millis(500);

/// Shared state the server renders responses from.
pub(crate) struct HttpState {
    /// Per-shard snapshot slots (same `Arc`s the shard threads publish to).
    pub snapshots: Vec<Arc<Mutex<ShardSnapshot>>>,
    /// SLO threshold, for the status payload.
    pub slo_ns: u64,
    /// Run start, for the status payload's elapsed clock.
    pub started: Instant,
}

/// A running observability server; dropping the handle after
/// [`HttpServer::stop`] joins the thread.
pub(crate) struct HttpServer {
    /// The bound address (port is ephemeral when configured as 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds `127.0.0.1:port` and starts serving.
    pub(crate) fn start(port: u16, state: HttpState) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gca-soak-http".into())
            .spawn(move || serve(listener, state, thread_stop))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the accept loop to exit and joins it.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(listener: TcpListener, state: HttpState, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: a connection holds this thread for at most
                // one render and two deadlines, and a soak has a handful
                // of scrapers at most.
                let _ = handle_conn(stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Status line, content type, body.
type Response = (&'static str, &'static str, String);

fn plain(status: &'static str, body: &str) -> Response {
    (status, "text/plain; charset=utf-8", body.to_string())
}

fn handle_conn(mut stream: TcpStream, state: &HttpState) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // One deadline for the whole head, however the client slices it: the
    // thread serves one connection at a time, so a dribbling client must
    // not be able to hold it.
    let deadline = Instant::now() + DEADLINE;
    let (refused, (status, content_type, body)) = match read_head(&mut stream, deadline)? {
        Ok(head) => {
            // Only the request line matters; every route is a body-less GET.
            let head = String::from_utf8_lossy(&head);
            let mut parts = head.lines().next().unwrap_or("").split_whitespace();
            let response = match (parts.next(), parts.next()) {
                (Some(method), Some(path)) => route(method, path, state),
                _ => plain("400 Bad Request", "bad request\n"),
            };
            (false, response)
        }
        Err(refusal) => (true, refusal),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    write_before(&mut stream, Instant::now() + DEADLINE, response.as_bytes())?;
    if refused {
        // The client may still be sending; closing over unread input would
        // reset the connection under the response. Let it finish, within
        // what is left of the deadline.
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut sink = [0u8; 512];
        while matches!(read_before(&mut stream, deadline, &mut sink), Ok(Some(n)) if n > 0) {}
    }
    Ok(())
}

/// One `read` that returns by `deadline`: `None` once it has passed.
fn read_before(
    stream: &mut TcpStream,
    deadline: Instant,
    chunk: &mut [u8],
) -> std::io::Result<Option<usize>> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(chunk) {
            Ok(n) => return Ok(Some(n)),
            // Timed out or interrupted: the loop re-reads the clock.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Writes all of `bytes` by `deadline`, however slowly the peer reads:
/// `TimedOut` once it has passed with bytes left over.
fn write_before(
    stream: &mut TcpStream,
    deadline: Instant,
    mut bytes: &[u8],
) -> std::io::Result<()> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock, WriteZero};
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            // Timed out or interrupted: the loop re-reads the clock.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads the request head, up to its blank line (or the client's EOF).
/// The inner `Err` is the refusal to answer with: `408` when `deadline`
/// passes first, `431` when the head outgrows 8 KiB.
fn read_head(
    stream: &mut TcpStream,
    deadline: Instant,
) -> std::io::Result<Result<Vec<u8>, Response>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let Some(n) = read_before(stream, deadline, &mut chunk)? else {
            return Ok(Err(plain("408 Request Timeout", "request timeout\n")));
        };
        // Search the new bytes only, plus three of overlap for a
        // terminator split across reads.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if n == 0 || buf[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(Ok(buf));
        }
        if buf.len() > 8192 {
            return Ok(Err(plain(
                "431 Request Header Fields Too Large",
                "request head too large\n",
            )));
        }
    }
}

fn route(method: &str, path: &str, state: &HttpState) -> Response {
    if method != "GET" {
        return plain("405 Method Not Allowed", "method not allowed\n");
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            with_snapshots(&state.snapshots, crate::fleet::render_metrics),
        ),
        // One field per shard: lock one slot at a time, copy nothing.
        "/healthz" => {
            if state
                .snapshots
                .iter()
                .any(|s| lock_snapshot(s).error.is_some())
            {
                plain("503 Service Unavailable", "degraded\n")
            } else {
                plain("200 OK", "ok\n")
            }
        }
        "/status" => (
            "200 OK",
            "application/json",
            with_snapshots(&state.snapshots, |snaps| {
                crate::fleet::render_status(snaps, state.slo_ns, state.started.elapsed())
            }),
        ),
        _ => plain("404 Not Found", "not found\n"),
    }
}

/// Test client: sends `request` as is and returns everything the server
/// answers.
#[cfg(test)]
pub(crate) fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoakConfig;
    use crate::shard::snapshot_slot;

    #[test]
    fn a_poisoned_snapshot_degrades_healthz_and_keeps_metrics_up() {
        let config = SoakConfig::smoke();
        let snapshots: Vec<_> = (0..config.shards)
            .map(|i| snapshot_slot(&config, i))
            .collect();
        // Shard 1 reports an error and then dies with the slot locked.
        let slot = Arc::clone(&snapshots[1]);
        let died = std::thread::spawn(move || {
            let mut snap = slot.lock().unwrap();
            snap.error = Some("request 10: boom".to_owned());
            panic!("while publishing");
        })
        .join();
        assert!(died.is_err() && snapshots[1].is_poisoned());

        let state = HttpState {
            snapshots,
            slo_ns: config.slo_ns,
            started: Instant::now(),
        };
        assert!(route("GET", "/healthz", &state).0.starts_with("503"));
        assert!(route("GET", "/metrics", &state).0.starts_with("200"));
        assert!(route("GET", "/status", &state).0.starts_with("200"));
    }

    fn server() -> HttpServer {
        let config = SoakConfig::smoke();
        let state = HttpState {
            snapshots: (0..config.shards)
                .map(|i| snapshot_slot(&config, i))
                .collect(),
            slo_ns: config.slo_ns,
            started: Instant::now(),
        };
        HttpServer::start(0, state).expect("bind an ephemeral port")
    }

    #[test]
    fn a_well_formed_get_is_served() {
        let server = server();
        let metrics = exchange(server.addr, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("gca_soak_requests_total{shard=\"0\""));
        // The terminator split across two writes is still found.
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r").unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(b"\n").unwrap();
        let mut health = String::new();
        stream.read_to_string(&mut health).unwrap();
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n") && health.ends_with("ok\n"));
    }

    #[test]
    fn a_stalled_head_gets_408_and_the_server_answers_the_next_connection() {
        let server = server();
        let asked = Instant::now();
        // The head never ends; the client just waits for an answer.
        let stalled = exchange(server.addr, b"GET /metr");
        assert!(stalled.starts_with("HTTP/1.1 408 "), "{stalled}");
        let took = asked.elapsed();
        assert!(
            took >= Duration::from_millis(400) && took < Duration::from_millis(1500),
            "one 500 ms deadline for the head, took {took:?}"
        );
        let next = exchange(server.addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(next.starts_with("HTTP/1.1 200 OK\r\n"), "{next}");
    }

    #[test]
    fn a_peer_that_never_reads_cannot_hold_the_writer() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        // The peer connects and then never reads.
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        // Far past what the kernel's socket buffers can absorb.
        let body = vec![b'x'; 32 << 20];
        let started = Instant::now();
        let written = write_before(&mut stream, started + DEADLINE, &body);
        let took = started.elapsed();
        assert_eq!(
            written.map_err(|e| e.kind()),
            Err(std::io::ErrorKind::TimedOut)
        );
        assert!(
            took < DEADLINE + Duration::from_millis(500),
            "the write must give up at its deadline, took {took:?}"
        );
    }

    #[test]
    fn an_oversized_head_gets_431() {
        let server = server();
        let mut request = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        request.resize(9_000, b'a');
        let response = exchange(server.addr, &request);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
    }

    #[test]
    fn a_request_line_without_method_and_path_gets_400() {
        let server = server();
        for request in [&b"\r\n\r\n"[..], b"GET\r\nHost: x\r\n\r\n"] {
            let response = exchange(server.addr, request);
            assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        }
    }
}
