//! The one client of the serving toolchain: `fedload`, `fedchaos`, the
//! chaos injector and the loopback test suites all connect, send frames
//! and read response lines through [`Client`].

use std::fmt::Display;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest response line [`Client::recv`] accepts, newline excluded.
const MAX_RESPONSE: u64 = 1 << 20;

/// How [`Client::recv`]'s error starts when the server closed the
/// connection in the middle of a line; a close between lines is a
/// different error.
pub const CLOSED_MID_LINE: &str = "server closed mid-line";

/// One connection to a `fedval-serve` daemon: both socket deadlines
/// armed, Nagle off, responses read through one buffered reader.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` with `timeout` as the read and the write
    /// deadline and Nagle's algorithm off.
    ///
    /// # Errors
    /// Connection or socket-option failures, rendered as strings.
    pub fn connect(
        addr: impl ToSocketAddrs + Display,
        timeout: Duration,
    ) -> Result<Client, String> {
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("set_write_timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// A second handle on the same connection with a reader of its own,
    /// so one thread can send while another receives.
    ///
    /// # Errors
    /// The socket could not be duplicated.
    pub fn try_clone(&self) -> Result<Client, String> {
        let stream = self
            .reader
            .get_ref()
            .try_clone()
            .map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// The raw socket, for bytes that are not one whole frame: partial
    /// writes, drips, pipelined bursts and half-closes.
    pub fn socket(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// Writes `frame` and its terminating newline.
    ///
    /// # Errors
    /// The write failed or timed out.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        self.socket()
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line and returns it without its newline.
    ///
    /// # Errors
    /// The read failed or timed out, the server closed the connection
    /// (between lines, or mid-line: [`CLOSED_MID_LINE`]), the line is
    /// not UTF-8, or it runs past 1 MiB.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = Vec::new();
        let read = (&mut self.reader)
            .take(MAX_RESPONSE + 1)
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("recv: {e}"))?;
        match line.pop() {
            Some(b'\n') => String::from_utf8(line).map_err(|e| format!("non-utf8 response: {e}")),
            _ if read as u64 > MAX_RESPONSE => {
                Err("unterminated response beyond 1 MiB".to_string())
            }
            None => Err("server closed the connection".to_string()),
            Some(_) => Err(format!("{CLOSED_MID_LINE} after {read} bytes")),
        }
    }

    /// [`send`](Client::send) then [`recv`](Client::recv).
    ///
    /// # Errors
    /// Either step failed.
    pub fn ask(&mut self, frame: &str) -> Result<String, String> {
        self.send(frame)?;
        self.recv()
    }

    /// Reads until the server closes the connection and returns what it
    /// sent, invalid UTF-8 replaced.
    ///
    /// # Errors
    /// The read failed or timed out before the close.
    pub fn recv_to_eof(&mut self) -> Result<String, String> {
        let mut tail = Vec::new();
        self.reader
            .read_to_end(&mut tail)
            .map_err(|e| format!("recv: {e}"))?;
        Ok(String::from_utf8_lossy(&tail).into_owned())
    }
}

/// Sends one request over a fresh [`Client`] and returns the server's
/// successful response line — the one-shot form of the `stats`,
/// `metrics` and `shutdown` queries.
///
/// # Errors
/// Connection, send or receive failures, or a response that is not
/// `"ok":true`, rendered as strings.
pub fn query(addr: &str, timeout: Duration, request: &str) -> Result<String, String> {
    let response = Client::connect(addr, timeout)?.ask(request)?;
    if response.contains("\"ok\":true") {
        Ok(response)
    } else {
        Err(format!("{request} was answered {response}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Runs `read` on a client of a one-shot peer that sends `bytes`
    /// and closes.
    fn reading<T>(bytes: &[u8], read: impl FnOnce(&mut Client) -> T) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut peer, _) = listener.accept().unwrap();
                // The client may close before taking every byte.
                let _ = peer.write_all(bytes);
            });
            read(&mut Client::connect(addr, Duration::from_secs(10)).unwrap())
        })
    }

    #[test]
    fn recv_returns_each_line_without_its_newline() {
        let lines = reading(b"{\"id\":1}\n{\"id\":2}\n", |c| {
            [c.recv(), c.recv(), c.recv()]
        });
        assert_eq!(
            lines,
            [
                Ok("{\"id\":1}".to_string()),
                Ok("{\"id\":2}".to_string()),
                Err("server closed the connection".to_string()),
            ]
        );
        let rest = reading(b"{\"id\":3}\npartial", |c| (c.recv(), c.recv_to_eof()));
        assert_eq!(
            rest,
            (Ok("{\"id\":3}".to_string()), Ok("partial".to_string()))
        );
    }

    #[test]
    fn recv_rejects_cut_non_utf8_and_overlong_lines() {
        assert_eq!(
            reading(b"{\"id\":1", Client::recv),
            Err("server closed mid-line after 7 bytes".to_string())
        );
        let garbled = reading(b"{\"id\":\xff}\n", Client::recv);
        assert!(garbled.unwrap_err().starts_with("non-utf8 response"));
        let longest = [vec![b'x'; 1 << 20], b"\n".to_vec()].concat();
        assert_eq!(
            reading(&longest, Client::recv).map(|l| l.len()),
            Ok(1 << 20)
        );
        let overlong = [vec![b'x'; (1 << 20) + 1], b"\n".to_vec()].concat();
        assert_eq!(
            reading(&overlong, Client::recv),
            Err("unterminated response beyond 1 MiB".to_string())
        );
    }
}
