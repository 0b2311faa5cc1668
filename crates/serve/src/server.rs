//! The TCP front of the service: accept loop, per-connection line
//! protocol, shutdown.
//!
//! One thread per connection reads newline-delimited JSON-RPC requests;
//! each request executes on the shared [`WorkerPool`], so `--threads`
//! bounds simultaneous engine work across connections. A connection
//! issues requests strictly in order and blocks for each response,
//! which is what makes transcripts deterministic — the server never
//! reorders one client's requests.

use crate::hub::{ConnState, SessionHub};
use crate::sched::WorkerPool;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool width — how many sessions make progress at once.
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
        }
    }
}

/// A running session server. Dropping it (or calling
/// [`stop`](Server::stop)) shuts it down and joins every thread.
pub struct Server {
    addr: SocketAddr,
    hub: Arc<SessionHub>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts serving in background threads.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let hub = Arc::new(SessionHub::new());
        let pool = Arc::new(WorkerPool::new(config.threads));
        let stop = Arc::new(AtomicBool::new(false));

        let accept_thread = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("edb-serve-accept".to_string())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let hub = Arc::clone(&hub);
                                let pool = Arc::clone(&pool);
                                let stop = Arc::clone(&stop);
                                let handle = std::thread::Builder::new()
                                    .name("edb-serve-conn".to_string())
                                    .spawn(move || {
                                        let _ = serve_connection(stream, &hub, &pool, &stop);
                                    })
                                    .expect("spawn connection thread");
                                conns.push(handle);
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                    stop.store(true, Ordering::SeqCst);
                    for handle in conns {
                        let _ = handle.join();
                    }
                })?
        };

        Ok(Server {
            addr,
            hub,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub, for in-process inspection.
    pub fn hub(&self) -> &SessionHub {
        &self.hub
    }

    /// Signals shutdown and joins the accept loop and every connection.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server stops (a client called `shutdown`, or
    /// [`stop`](Server::stop) from another thread).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Hard cap on one request line, bytes (newline included). A client
/// that exceeds it gets a typed `-32700` reply and the rest of that
/// line is discarded — the connection itself stays usable. Bounds
/// per-connection memory against a peer that streams forever without a
/// newline.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A typed `-32700` reply line for intake-level failures (the request
/// never reached the dispatcher).
fn parse_error_reply(message: String) -> String {
    let error = crate::rpc::RpcError::protocol(crate::rpc::PARSE_ERROR, message);
    crate::rpc::error_line(None, &error)
}

/// The reply for an over-limit request line.
fn oversize_reply() -> String {
    parse_error_reply(format!(
        "parse error: request line exceeds {MAX_LINE_BYTES} bytes"
    ))
}

/// Serves one connection until EOF, error, or server shutdown. Reads
/// use a short timeout so a parked connection notices a server-wide
/// shutdown promptly.
fn serve_connection(
    stream: TcpStream,
    hub: &Arc<SessionHub>,
    pool: &WorkerPool,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // The connection's view of the hub; shared with the worker closure
    // executing the current request (one request in flight at a time).
    let conn = Arc::new(Mutex::new(ConnState::new()));
    let mut line = String::new();
    // True while throwing away the tail of an over-limit line (the
    // error reply has already been sent).
    let mut discarding = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                let complete = line.ends_with('\n');
                if discarding {
                    discarding = !complete;
                    line.clear();
                    continue;
                }
                if line.len() > MAX_LINE_BYTES {
                    writer.write_all(oversize_reply().as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                    discarding = !complete;
                    line.clear();
                    continue;
                }
                if !complete {
                    // A final unterminated line: serve it and then EOF.
                    line.push('\n');
                }
                let text = std::mem::take(&mut line);
                let text = text.trim().to_string();
                if text.is_empty() {
                    continue;
                }
                let out = {
                    let hub = Arc::clone(hub);
                    let conn = Arc::clone(&conn);
                    pool.run(move || {
                        let mut conn = conn.lock().expect("conn lock");
                        hub.dispatch(&mut conn, &text)
                    })
                };
                for reply in &out.lines {
                    writer.write_all(reply.as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                if out.shutdown {
                    stop.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Timeout with a possibly partial line buffered in
                // `line`; keep accumulating on the next pass — unless
                // the partial has already blown the cap, in which case
                // reply now and discard until the newline shows up.
                if !discarding && line.len() > MAX_LINE_BYTES {
                    writer.write_all(oversize_reply().as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                    discarding = true;
                    line.clear();
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Non-UTF-8 garbage; the bytes up to the newline are
                // consumed, so reply typed and keep the connection.
                line.clear();
                if !discarding {
                    let reply =
                        parse_error_reply("parse error: request line is not valid UTF-8".into());
                    writer.write_all(reply.as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                }
                discarding = false;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        // Skip notifications; the response is the first line with "id".
        loop {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            if reply.contains(r#""id":"#) {
                return reply.trim().to_string();
            }
        }
    }

    #[test]
    fn serves_a_round_trip_and_shuts_down() {
        let mut server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
        })
        .expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let info = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
        let bye = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":{}}"#,
        );
        assert!(bye.contains(r#""ok":true"#), "{bye}");
        server.wait();
    }

    fn start_server() -> (Server, TcpStream, BufReader<TcpStream>) {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
        })
        .expect("bind");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().unwrap());
        (server, stream, reader)
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    }

    /// Intake hardening: truncated JSON gets a typed `-32700` reply and
    /// the connection keeps serving.
    #[test]
    fn truncated_json_gets_a_typed_parse_error() {
        let (_server, mut stream, mut reader) = start_server();
        stream
            .write_all(b"{\"jsonrpc\":\"2.0\",\"id\":7,\"met\n")
            .unwrap();
        let reply = read_reply(&mut reader);
        assert!(reply.contains(r#""code":-32700"#), "{reply}");
        assert!(reply.contains(r#""id":null"#), "{reply}");
        // The connection survived: a well-formed request still works.
        let info = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
    }

    /// Intake hardening: non-UTF-8 garbage gets a typed `-32700` reply
    /// instead of a dropped connection.
    #[test]
    fn garbage_bytes_get_a_typed_parse_error() {
        let (_server, mut stream, mut reader) = start_server();
        stream.write_all(&[0xFF, 0xFE, 0x80, 0x92, b'\n']).unwrap();
        let reply = read_reply(&mut reader);
        assert!(reply.contains(r#""code":-32700"#), "{reply}");
        assert!(reply.contains("not valid UTF-8"), "{reply}");
        let info = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
    }

    /// Intake hardening: a line nested far past any stack but under
    /// [`MAX_LINE_BYTES`] gets a typed `-32700` reply instead of
    /// aborting the process, and the connection keeps serving.
    #[test]
    fn deeply_nested_line_gets_a_typed_parse_error() {
        let (_server, mut stream, mut reader) = start_server();
        let mut deep = String::from(r#"{"jsonrpc":"2.0","id":3,"method":"status","params":"#);
        deep.push_str(&"[".repeat(60_000));
        assert!(deep.len() < MAX_LINE_BYTES);
        deep.push('\n');
        stream.write_all(deep.as_bytes()).unwrap();
        let reply = read_reply(&mut reader);
        assert!(reply.contains(r#""code":-32700"#), "{reply}");
        assert!(reply.contains("nesting"), "{reply}");
        let info = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
    }

    /// Intake hardening: a request line over [`MAX_LINE_BYTES`] gets a
    /// typed `-32700` reply, the tail is discarded, and the next
    /// request is served normally.
    #[test]
    fn over_limit_line_is_bounded_and_replied() {
        let (_server, mut stream, mut reader) = start_server();
        let mut big = String::from(r#"{"jsonrpc":"2.0","id":9,"method":""#);
        big.push_str(&"x".repeat(MAX_LINE_BYTES + 1024));
        big.push_str("\"}\n");
        stream.write_all(big.as_bytes()).unwrap();
        let reply = read_reply(&mut reader);
        assert!(reply.contains(r#""code":-32700"#), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        let info = request(
            &mut stream,
            &mut reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
    }
}
