//! The one line server every listener in the workspace is built on.
//!
//! [`listen`] owns everything about a TCP endpoint that is not a verb:
//! bind, the accept thread and its stop flag, one thread per connection,
//! the bounded read-line, blank-line skipping, and the reply path. A
//! listener supplies only a per-connection handler that writes response
//! lines to a [`Reply`]; the scaffold flushes it once per request line.
//! DESIGN.md ("One line server") has the rationale, and what the reply
//! path still owes a multi-line reply.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Longest request line accepted, terminator excluded. A peer that sends
/// more without a newline is answered `ERR line too long …` and
/// disconnected instead of growing the line buffer without limit. The
/// longest legal line in any protocol served here is a `RECX` carrying
/// `MAX_REC_USERS` ten-digit ids (≈ 11.3 KB).
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// What happens to the connection once the reply has been written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Read the next request line.
    Continue,
    /// Close the connection (`QUIT`).
    Close,
}

/// The response to one request line: the handler writes lines, the
/// scaffold flushes them when the handler returns.
pub struct Reply<'a> {
    writer: BufWriter<&'a TcpStream>,
    /// A write failed: the peer is gone, so the connection closes.
    failed: bool,
}

impl Reply<'_> {
    /// Writes one response line; the newline is added here.
    pub fn line(&mut self, line: impl std::fmt::Display) {
        self.failed |= writeln!(self.writer, "{line}").is_err();
    }

    fn flush(&mut self) -> bool {
        self.failed |= self.writer.flush().is_err();
        !self.failed
    }
}

/// The open connections of one listener: a clone of each socket, by
/// connection number, so stopping the listener can close them.
type OpenConns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A running listener; dropping it (or calling [`ListenerHandle::stop`])
/// shuts the accept loop down and closes every open connection, so a
/// stopped listener answers nothing more, as an exited process would not.
pub struct ListenerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    open: OpenConns,
}

impl ListenerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections, joins the accept loop, and closes
    /// the open connections.
    pub fn stop(self) {}
}

impl Drop for ListenerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Each connection's blocked read then returns, ending its thread.
        if let Ok(open) = self.open.lock() {
            for stream in open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves it
/// until the handle is stopped. `make_handler` runs once per accepted
/// connection, so whatever the handler captures or creates is that
/// connection's own state; the handler is called once per non-blank
/// request line. Threads are named `<thread_name>-accept` / `-conn`.
pub fn listen<F, H>(addr: &str, thread_name: &str, make_handler: F) -> io::Result<ListenerHandle>
where
    F: Fn() -> H + Send + 'static,
    H: FnMut(&str, &mut Reply) -> Next + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let open = OpenConns::default();
    let conns = open.clone();
    let conn_name = format!("{thread_name}-conn");
    let accept_thread = std::thread::Builder::new()
        .name(format!("{thread_name}-accept"))
        .spawn(move || {
            for (id, conn) in (0u64..).zip(listener.incoming()) {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok((stream, kept)) = conn.and_then(|s| Ok((s.try_clone()?, s))) else {
                    continue;
                };
                conns.lock().expect("open-connection lock").insert(id, kept);
                let handler = make_handler();
                let live = conns.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || {
                            serve_connection(&stream, handler);
                            live.lock().expect("open-connection lock").remove(&id);
                        });
                if spawned.is_err() {
                    conns.lock().expect("open-connection lock").remove(&id);
                }
            }
        })?;
    Ok(ListenerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        open,
    })
}

/// The read/respond loop of one connection; returning closes it.
fn serve_connection(stream: &TcpStream, mut handler: impl FnMut(&str, &mut Reply) -> Next) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut reply = Reply {
        writer: BufWriter::new(stream),
        failed: false,
    };
    loop {
        line.clear();
        // One byte past the cap tells a line of exactly the cap from one
        // that is over it.
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let next = if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            reply.line(format_args!(
                "ERR line too long (max {MAX_LINE_BYTES} bytes)"
            ));
            Next::Close
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            if text.trim().is_empty() {
                continue;
            }
            let text = text.strip_suffix('\n').unwrap_or(text);
            handler(text.strip_suffix('\r').unwrap_or(text), &mut reply)
        };
        if !reply.flush() || next == Next::Close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client connection: `ask` sends one line and reads one back.
    struct Conn {
        reader: BufReader<TcpStream>,
    }

    impl Conn {
        fn open(handle: &ListenerHandle) -> Conn {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            Conn {
                reader: BufReader::new(stream),
            }
        }

        fn send(&mut self, bytes: &[u8]) {
            self.reader.get_mut().write_all(bytes).unwrap();
        }

        /// The next line without its newline; `None` once the server has
        /// closed the connection.
        fn recv(&mut self) -> Option<String> {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).unwrap();
            (n > 0).then(|| line.trim_end().to_string())
        }

        fn ask(&mut self, line: &str) -> String {
            self.send(format!("{line}\n").as_bytes());
            self.recv().expect("server closed the connection")
        }
    }

    /// Echoes each line prefixed with how many lines this connection has
    /// sent; `QUIT` answers `BYE` and closes; `BIG <n>` answers `n` lines.
    fn counting_echo() -> ListenerHandle {
        listen("127.0.0.1:0", "net-test", || {
            let mut seen = 0u32;
            move |line: &str, reply: &mut Reply| {
                seen += 1;
                if line == "QUIT" {
                    reply.line("BYE");
                    return Next::Close;
                }
                match line.strip_prefix("BIG ") {
                    Some(n) => {
                        for i in 0..n.parse::<u32>().unwrap() {
                            reply.line(format_args!("row {i} {}", "x".repeat(64)));
                        }
                    }
                    None => reply.line(format_args!("{seen} {line}")),
                }
                Next::Continue
            }
        })
        .unwrap()
    }

    #[test]
    fn stop_and_drop_both_unblock_accept_and_release_the_port() {
        let handle = counting_echo();
        let addr = handle.addr();
        handle.stop();
        assert!(TcpStream::connect(addr).is_err(), "listener still bound");

        let addr = {
            let handle = counting_echo();
            assert_eq!(Conn::open(&handle).ask("hi"), "1 hi");
            handle.addr()
        };
        assert!(TcpStream::connect(addr).is_err(), "listener still bound");
    }

    #[test]
    fn stop_closes_the_open_connections() {
        let handle = counting_echo();
        let mut quitter = Conn::open(&handle);
        assert_eq!(quitter.ask("QUIT"), "BYE");
        let mut idle = Conn::open(&handle);
        assert_eq!(idle.ask("hi"), "1 hi");
        // A closed connection leaves the table when its thread ends.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.open.lock().unwrap().len() != 1 {
            assert!(std::time::Instant::now() < deadline, "QUIT left its entry");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.stop();
        assert_eq!(idle.recv(), None, "a stopped listener still answers");
    }

    #[test]
    fn close_flushes_the_reply_then_closes() {
        let handle = counting_echo();
        let mut conn = Conn::open(&handle);
        assert_eq!(conn.ask("QUIT"), "BYE");
        assert_eq!(conn.recv(), None);
    }

    #[test]
    fn blank_lines_are_skipped_and_crlf_is_stripped() {
        let handle = counting_echo();
        let mut conn = Conn::open(&handle);
        conn.send(b"\n   \n\r\nfirst\r\n\nsecond\n");
        assert_eq!(conn.recv().unwrap(), "1 first");
        assert_eq!(conn.recv().unwrap(), "2 second");
    }

    #[test]
    fn a_reply_larger_than_any_socket_buffer_arrives_whole_and_in_order() {
        let handle = counting_echo();
        let mut conn = Conn::open(&handle);
        // 4096 rows of ~75 bytes ≈ 300 KB.
        conn.send(b"BIG 4096\n");
        for i in 0..4096 {
            assert_eq!(conn.recv().unwrap(), format!("row {i} {}", "x".repeat(64)));
        }
        assert_eq!(conn.ask("after"), "2 after");
    }

    #[test]
    fn an_overlong_line_is_refused_and_closed_without_hurting_other_connections() {
        let handle = counting_echo();
        let mut bystander = Conn::open(&handle);
        assert_eq!(bystander.ask("before"), "1 before");

        // Exactly at the cap is served.
        let mut conn = Conn::open(&handle);
        let at_cap = "a".repeat(MAX_LINE_BYTES);
        assert_eq!(conn.ask(&at_cap), format!("1 {at_cap}"));
        // One byte over, newline never sent: typed refusal, then EOF.
        conn.send("b".repeat(MAX_LINE_BYTES + 1).as_bytes());
        assert_eq!(
            conn.recv().unwrap(),
            format!("ERR line too long (max {MAX_LINE_BYTES} bytes)")
        );
        assert_eq!(conn.recv(), None);

        assert_eq!(bystander.ask("after"), "2 after");
    }

    #[test]
    fn handler_state_is_per_connection() {
        let handle = counting_echo();
        let mut a = Conn::open(&handle);
        let mut b = Conn::open(&handle);
        assert_eq!(a.ask("x"), "1 x");
        assert_eq!(b.ask("y"), "1 y");
        assert_eq!(a.ask("x"), "2 x");
        assert_eq!(a.ask("x"), "3 x");
        assert_eq!(b.ask("y"), "2 y");
    }
}
