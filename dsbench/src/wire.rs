//! Client side of the NDJSON protocol, plus the open-loop schedule.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection: a request line out, one reply line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer, reply: String::new() })
    }

    /// Sends `request` and returns the reply line (without its newline).
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// True for a well-formed success reply.
pub fn reply_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// One request of an open-loop client, timed from when it was due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// How late the request went out (`sent - due`), ns.
    pub late_ns: u64,
    /// Latency the client saw, from the due time to the reply, ns.
    pub latency_ns: u64,
}

impl Timed {
    /// Timing of a request due at `due`, sent at `sent` (not before
    /// `due`) and answered at `done`.
    pub fn new(due: Instant, sent: Instant, done: Instant) -> Timed {
        let ns = |d: Duration| d.as_nanos() as u64;
        Timed { late_ns: ns(sent - due), latency_ns: ns(done - due) }
    }
}

/// A fixed-rate schedule: request `i` is due at `origin + i · period`.
/// The caller sends each request no earlier than its due time and times
/// it from there, so a stall that holds up later requests shows in their
/// latency (no coordinated omission) as well as in their lateness.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    origin: Instant,
    period: Duration,
}

impl Schedule {
    /// A schedule starting now.
    pub fn new(period: Duration) -> Self {
        Schedule { origin: Instant::now(), period }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.origin + self.period * i as u32
    }

    /// Waits for request `i`'s due time, runs it, and reports its timing.
    pub fn run<T>(&self, i: u64, request: impl FnOnce() -> T) -> (T, Timed) {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let out = request();
        (out, Timed::new(due, sent, Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_timed_from_their_due_time() {
        // 1 ms period; request 2 stalls from 2 ms to 8 ms. Request 3 was
        // due at 3 ms, could only go out at 8 ms and was answered at
        // 8.1 ms: it is 5 ms late and its latency counts the wait from its
        // due time, not only its own 0.1 ms of service.
        let s = Schedule::new(Duration::from_millis(1));
        let at = |us: u64| s.due(0) + Duration::from_micros(us);
        assert_eq!(s.due(3), at(3000));
        let stalled = Timed::new(s.due(2), at(2000), at(8000));
        assert_eq!(stalled, Timed { late_ns: 0, latency_ns: 6_000_000 });
        let held_up = Timed::new(s.due(3), at(8000), at(8100));
        assert_eq!(held_up, Timed { late_ns: 5_000_000, latency_ns: 5_100_000 });
    }

    #[test]
    fn run_never_sends_before_the_due_time() {
        let s = Schedule::new(Duration::from_millis(2));
        for i in 0..3 {
            let (sent, t) = s.run(i, Instant::now);
            assert!(sent >= s.due(i));
            assert!(t.latency_ns >= t.late_ns);
        }
    }
}
