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
//! soak. Scrapes read snapshot clones only — they can never block a
//! mutator thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::shard::{clone_snapshots, ShardSnapshot};

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
    pub fn start(port: u16, state: HttpState) -> std::io::Result<HttpServer> {
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
    pub fn stop(&mut self) {
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
                // Serve inline: scrapes are cheap (snapshot clones) and a
                // soak has a handful of scrapers at most.
                let _ = handle_conn(stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, state: &HttpState) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head; we only need the request
    // line, and every route is a body-less GET.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(method, path, state);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn route(method: &str, path: &str, state: &HttpState) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        );
    }
    let snaps = clone_snapshots(&state.snapshots);
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::fleet::render_metrics(&snaps),
        ),
        "/healthz" => {
            if snaps.iter().any(|s| s.error.is_some()) {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "degraded\n".to_string(),
                )
            } else {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
            }
        }
        "/status" => (
            "200 OK",
            "application/json",
            crate::fleet::render_status(&snaps, state.slo_ns, state.started.elapsed()),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
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
}
