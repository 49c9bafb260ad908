//! A reusable blocking client for the serving wire protocol.
//!
//! Everything that used to live ad hoc inside `loadgen` — connect, write a
//! request line, read response lines — is factored here so the load
//! generator, the shard router's downstream connections, and the chaos
//! scenario driver all speak the protocol through one code path. Requests
//! are [`Request`]s, spelled by the protocol module, and `STATS` fields
//! are read with its [`field`]. The client is deliberately dumb about
//! *content*: `REC` responses come back as raw lines, so a proxy relaying
//! them forwards the replica's bytes verbatim (which is what makes routed
//! responses bit-identical to direct ones — no reparse/rerender step can
//! perturb a score's hex bit pattern).

use std::fmt::Display;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{field, Request};

/// Resolves `addr` to a socket address, rejecting malformed input with a
/// readable message instead of a panic or a hang.
pub fn resolve_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("bad address {addr:?}: resolves to nothing"))
}

/// One line-oriented protocol connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServeClient {
    /// Connects with no timeouts (blocking until the OS gives up).
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let resolved = resolve_addr(addr).map_err(io::Error::other)?;
        Self::from_stream(TcpStream::connect(resolved)?)
    }

    /// Connects with a connect timeout and an optional per-read/write I/O
    /// timeout — the shape a proxy needs so one hung replica cannot wedge
    /// a routed connection forever.
    pub fn connect_with_timeouts(
        addr: &str,
        connect: Duration,
        io_timeout: Option<Duration>,
    ) -> io::Result<ServeClient> {
        let resolved = resolve_addr(addr).map_err(io::Error::other)?;
        let stream = TcpStream::connect_timeout(&resolved, connect)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<ServeClient> {
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Re-arms the per-read/write timeout on the live socket. Both halves
    /// share one file description, so setting it on either applies to the
    /// connection. A proxy carrying a per-request deadline calls this
    /// before reusing a cached connection, clamping the socket timeout to
    /// the request's remaining budget.
    pub fn set_io_timeout(&self, io_timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.writer.get_ref();
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)
    }

    /// Writes one request line (a [`Request`], or raw text) and flushes it.
    pub fn send_line(&mut self, line: impl Display) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// Reads one response line (without its trailing newline). A closed
    /// connection is an `UnexpectedEof` error, never an empty success —
    /// and so is a connection that closes **mid-line**: a response without
    /// its terminating newline is a truncated transport artifact of a
    /// dying server, and relaying it as data would let a half-written
    /// `OK …` line masquerade as a complete answer. Callers (the router's
    /// relay path in particular) treat it like any other I/O failure:
    /// drop the connection, report the replica, fail over.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "server died mid-response (truncated line, {} bytes)",
                    line.len()
                ),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends `line` and reads exactly `n` response lines.
    pub fn request_lines(&mut self, line: impl Display, n: usize) -> io::Result<Vec<String>> {
        self.send_line(line)?;
        (0..n).map(|_| self.read_line()).collect()
    }

    /// `REC` for one user: the raw response line.
    pub fn rec_one(&mut self, user: u32, k: usize) -> io::Result<String> {
        self.rec_one_mode(user, k, false)
    }

    /// `REC` or `RECX` (exact-parity oracle) for one user: the raw
    /// response line.
    pub fn rec_one_mode(&mut self, user: u32, k: usize, exact: bool) -> io::Result<String> {
        let users = vec![user];
        self.ask(Request::Rec { users, k, exact })
    }

    /// `STATS`: the raw response line.
    pub fn stats_line(&mut self) -> io::Result<String> {
        self.ask(Request::Stats)
    }

    /// Sends a one-line request and reads its one response line.
    fn ask(&mut self, request: Request) -> io::Result<String> {
        self.send_line(request)?;
        self.read_line()
    }

    /// Asks the server (or router) at `addr` for its table shape over a
    /// connection of its own: `(users, items)` from the `STATS` line, so a
    /// load generator keeps its draws in range. Zero users is an error —
    /// there is nobody to ask about.
    pub fn probe_shape(addr: &str) -> Result<(u32, usize), String> {
        let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let line = client.stats_line().map_err(|e| format!("STATS: {e}"))?;
        client.quit();
        let users = field(&line, "users").and_then(|v| v.parse::<u32>().ok());
        let items = field(&line, "items").and_then(|v| v.parse::<usize>().ok());
        match (users, items) {
            (Some(0), _) => Err(format!("server reports zero users: {line}")),
            (Some(u), Some(i)) => Ok((u, i)),
            _ => Err(format!("bad STATS response: {line}")),
        }
    }

    /// `PING`: true iff the server answered `PONG`.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.ask(Request::Ping)? == "PONG")
    }

    /// Sends `QUIT` and drops the connection; errors are ignored (the
    /// server may already be gone).
    pub fn quit(mut self) {
        let _ = self.send_line(Request::Quit);
    }
}

/// Nearest-rank percentile over an ascending-sorted latency vector.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Aggregated latency/throughput numbers for one load-generation phase.
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 95th percentile in microseconds.
    pub p95_us: u64,
    /// 99th percentile in microseconds.
    pub p99_us: u64,
    /// Requests per second over the wall-clock window.
    pub qps: f64,
}

impl LatencySummary {
    /// Summarizes raw microsecond samples taken over `elapsed`.
    pub fn from_samples(mut samples: Vec<u64>, elapsed: Duration) -> LatencySummary {
        samples.sort_unstable();
        LatencySummary {
            count: samples.len(),
            p50_us: percentile(&samples, 0.50),
            p95_us: percentile(&samples, 0.95),
            p99_us: percentile(&samples, 0.99),
            qps: samples.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_addresses_are_rejected_with_a_message() {
        assert!(resolve_addr("not an address").is_err());
        assert!(resolve_addr("127.0.0.1").is_err(), "missing port");
        assert!(resolve_addr("127.0.0.1:99999").is_err(), "port overflow");
        assert!(resolve_addr("127.0.0.1:0").is_ok());
    }

    #[test]
    fn stats_fields_parse_positionally_anywhere() {
        let line = "STATS gen=4 users=150 items=120 requests=9";
        assert_eq!(field(line, "users"), Some("150"));
        assert_eq!(field(line, "gen"), Some("4"));
        assert_eq!(field(line, "absent"), None);
        // Whole keys only: a key that is a prefix of another, or of the
        // line's head, reads nothing.
        let line = "STATS gen=4 shard_requests=1,2 requests=9 items=";
        assert_eq!(field(line, "requests"), Some("9"));
        assert_eq!(field(line, "items"), Some(""));
        assert_eq!(field(line, "ge"), None);
        assert_eq!(field(line, "STATS"), None);
        assert_eq!(
            field("READY addr=127.0.0.1:5 gen=2", "addr"),
            Some("127.0.0.1:5")
        );
    }

    #[test]
    fn a_mid_line_death_is_a_typed_transport_error_not_data() {
        // The server answers one complete line, then writes half a line
        // and slams the connection — the client must surface the partial
        // read as UnexpectedEof, never as a successful (truncated) answer.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .write_all(b"OK gen=1 user=0 k=2 items=1,2 bits=a,b\n")
                .unwrap();
            stream.write_all(b"OK gen=1 user=1 k=2 item").unwrap();
            // drop → FIN mid-line
        });
        let mut client = ServeClient::connect(&addr.to_string()).unwrap();
        assert!(client.read_line().unwrap().starts_with("OK "));
        let err = client.read_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("truncated"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn latency_summary_counts_and_rates() {
        let s = LatencySummary::from_samples(vec![30, 10, 20], Duration::from_millis(3));
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_us, 20);
        assert!((s.qps - 1000.0).abs() < 1.0);
    }
}
