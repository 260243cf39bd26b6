//! A std-only TCP front end for [`QueryService`].
//!
//! One thread accepts connections; each connection gets its own handler
//! thread (requests on one connection are served in order, connections
//! are served concurrently — the service itself is the concurrency
//! boundary, not the transport). The protocol is line-oriented ASCII, one
//! request per line:
//!
//! ```text
//! Q <tenant-id> <query-name> <elem> <elem> ...   evaluate a query
//! STATS                                          one-line counter dump
//! QUIT                                           close the connection
//! ```
//!
//! and one response line per request:
//!
//! ```text
//! ANSWER <true|false> epoch=<e> cached=<0|1>
//! REJECTED <reason>
//! INTERRUPTED <limit|deadline|cancelled>
//! ERR <message>
//! ```

use crate::qos::TenantId;
use crate::service::{QueryService, Request, Response};
use kv_structures::Interrupted;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked accept/read loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(10);

/// The TCP front end; see the [module docs](self) for the protocol.
pub struct TcpServer;

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` until [`ServerHandle::shutdown`].
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || accept_loop(listener, service, accept_stop));
        Ok(ServerHandle {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }
}

/// Handle to a running [`TcpServer`]; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the connection handlers, and joins every
    /// server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, service: Arc<QueryService>, stop: Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &stop);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serves one connection until EOF, `QUIT`, or server shutdown.
fn handle_connection(
    stream: TcpStream,
    service: &QueryService,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::SeqCst) {
        // `read_line` appends, so a request split across read timeouts
        // accumulates in `line` until its newline arrives; the buffer is
        // cleared only after a complete line is processed.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with('\n') => {}
            Ok(_) => break, // EOF mid-line: drop the fragment
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        let request = line.trim().to_string();
        line.clear();
        let request = request.as_str();
        if request.is_empty() {
            continue;
        }
        if request.eq_ignore_ascii_case("QUIT") {
            break;
        }
        let reply = dispatch(service, request);
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// Parses and serves one request line, rendering the response line.
fn dispatch(service: &QueryService, request: &str) -> String {
    if request.eq_ignore_ascii_case("STATS") {
        let m = service.metrics();
        return format!(
            "STATS requests={} answered={} hits={} misses={} rejected={} interrupted={} epoch={}",
            m.requests,
            m.answered,
            m.cache_hits,
            m.cache_misses,
            m.rejected,
            m.interrupted,
            m.epoch
        );
    }
    let mut parts = request.split_ascii_whitespace();
    if !parts
        .next()
        .is_some_and(|verb| verb.eq_ignore_ascii_case("Q"))
    {
        return "ERR unknown verb (expected Q, STATS, or QUIT)".into();
    }
    let Some(tenant) = parts.next().and_then(|t| t.parse::<u32>().ok()) else {
        return "ERR bad tenant id".into();
    };
    let Some(name) = parts.next() else {
        return "ERR missing query name".into();
    };
    let Some(query) = service.query_id(name) else {
        return format!("ERR unknown query {name:?}");
    };
    let mut tuple = Vec::new();
    for p in parts {
        match p.parse::<u32>() {
            Ok(e) => tuple.push(e),
            Err(_) => return format!("ERR bad tuple element {p:?}"),
        }
    }
    match service.serve(&Request {
        tenant: TenantId(tenant),
        query,
        tuple,
    }) {
        Response::Answer {
            holds,
            epoch,
            cached,
        } => format!("ANSWER {holds} epoch={epoch} cached={}", u8::from(cached)),
        Response::Rejected(reason) => format!("REJECTED {reason}"),
        Response::Interrupted(Interrupted::Limit(_)) => "INTERRUPTED limit".into(),
        Response::Interrupted(Interrupted::Deadline) => "INTERRUPTED deadline".into(),
        Response::Interrupted(Interrupted::Cancelled) => "INTERRUPTED cancelled".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::TenantPolicy;
    use crate::service::ServiceBuilder;
    use kv_core::ProgramQuery;
    use kv_datalog::programs::transitive_closure;
    use kv_structures::generators::directed_path;

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn fuzzed_request_lines_get_a_reply_not_a_panic() {
        let mut builder = ServiceBuilder::new(&directed_path(4));
        builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 3]),
        );
        builder.register_tenant(TenantPolicy::unlimited("t0"));
        builder.register_tenant(TenantPolicy::unlimited("broke").with_credits(0));
        let service = builder.build();
        let valid = ["Q 0 tc 0 3", "Q 1 tc 3 0\nSTATS", "q 0 tc 2 1", "STATS"];
        let mut rng = kv_structures::SplitMix64::seed_from_u64(0x7C9_F022);
        for _ in 0..5_000 {
            let text = rng.fuzz_text(&valid);
            // One request per line, trimmed, as the connection handler
            // passes them on.
            for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
                let reply = std::panic::catch_unwind(|| dispatch(&service, line));
                assert!(reply.is_ok(), "dispatch panicked on {line:?}");
            }
        }
        // Elements outside the 4-node universe are refused at admission.
        for line in ["Q 0 tc 99 3", "Q 0 tc 4294967295 4294967295"] {
            assert_eq!(dispatch(&service, line), "REJECTED out-of-universe");
        }
    }

    #[test]
    fn tcp_roundtrip_serves_queries_and_stats() {
        let mut builder = ServiceBuilder::new(&directed_path(4));
        builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 3]),
        );
        builder.register_tenant(TenantPolicy::unlimited("t0"));
        builder.register_tenant(TenantPolicy::unlimited("broke").with_credits(0));
        let handle = TcpServer::bind(Arc::new(builder.build()), "127.0.0.1:0").unwrap();

        let mut client = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(
            roundtrip(&mut client, "Q 0 tc 0 3"),
            "ANSWER true epoch=0 cached=0"
        );
        assert_eq!(
            roundtrip(&mut client, "Q 0 tc 0 3"),
            "ANSWER true epoch=0 cached=1"
        );
        assert_eq!(
            roundtrip(&mut client, "Q 1 tc 0 3"),
            "REJECTED out-of-credits"
        );
        assert_eq!(
            roundtrip(&mut client, "Q 0 nope 0 3"),
            "ERR unknown query \"nope\""
        );
        let stats = roundtrip(&mut client, "STATS");
        assert!(stats.starts_with("STATS requests=3"), "{stats}");

        // A second concurrent connection is served independently.
        let mut other = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(
            roundtrip(&mut other, "Q 0 tc 3 0"),
            "ANSWER false epoch=0 cached=0"
        );

        roundtrip(&mut client, "QUIT"); // no reply expected; next read hits EOF
        handle.shutdown();
    }
}
