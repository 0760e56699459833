//! A minimal HTTP/1.1 keep-alive client and the open-loop load generator.
//!
//! Requests carry the time they are due. Each connection thread takes the
//! next request in due order, waits until it is due, sends it and reads
//! the reply; a request that finds every connection busy is sent late,
//! and its latency still counts from when it was due.

use crate::metrics::{Timeline, CLIENT_TRACK};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/response exchange; returns the status and body.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// A scheduled request.
pub struct Request {
    /// Microseconds after the phase start when the request is due.
    pub due_us: u64,
    pub method: &'static str,
    pub target: String,
    pub body: Arc<Vec<u8>>,
}

/// A reply reduced in the client thread: artifact-bearing bodies are
/// hashed and dropped so the client holds no artifacts.
pub struct Reply {
    pub status: u16,
    /// The body without its `artifact` field.
    pub head: Vec<u8>,
    /// Hash and length of the `artifact` JSON value, when present.
    pub artifact: Option<(u64, usize)>,
}

impl Reply {
    fn reduce(status: u16, body: Vec<u8>) -> Reply {
        const KEY: &[u8] = b",\"artifact\":";
        let scan = &body[..body.len().min(1024)];
        match scan.windows(KEY.len()).position(|w| w == KEY) {
            // Only single-job results carry an artifact; metadata-only
            // ones say `"artifact":null`.
            Some(at) if body.starts_with(b"{\"job\":") && !body.ends_with(b":null}") => {
                let value = &body[at + KEY.len()..body.len() - 1];
                let artifact = Some((hash(value), value.len()));
                let mut head = body[..at].to_vec();
                head.push(b'}');
                Reply {
                    status,
                    head,
                    artifact,
                }
            }
            _ => Reply {
                status,
                head: body,
                artifact: None,
            },
        }
    }
}

/// 64-bit multiply-xor hash over 8-byte words (fast enough to run on
/// multi-megabyte bodies in the client thread).
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What happened to one scheduled request.
pub struct Sample {
    pub due_us: u64,
    pub send_us: u64,
    pub done_us: u64,
    /// How late the generator itself sent the request: time past its due
    /// time (or past when a connection became free, if later) before the
    /// request went out.
    pub late_us: u64,
    /// `None` when the exchange failed at the transport level.
    pub reply: Option<Reply>,
}

impl Sample {
    /// Client latency counted from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_us - self.due_us) as f64 / 1e3
    }

    /// Time on the wire and in the server, in µs.
    pub fn exchange_us(&self) -> u64 {
        self.done_us - self.send_us
    }
}

/// Runs a schedule open loop over `conns` keep-alive connections.
pub fn run(addr: SocketAddr, schedule: &[&Request], conns: usize, tl: &Timeline) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    // A short lead so the first requests are not born late.
    let start = Instant::now() + Duration::from_millis(5);
    let since = |t: Instant| t.saturating_duration_since(start).as_micros() as u64;
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn = Conn::connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&req) = schedule.get(i) else { break };
                    let picked = since(Instant::now());
                    if picked < req.due_us {
                        std::thread::sleep(Duration::from_micros(req.due_us - picked));
                    }
                    let send_us = since(Instant::now());
                    let late_us = send_us.saturating_sub(picked.max(req.due_us));
                    let result = match conn.as_mut() {
                        Some(c) => c.call(req.method, &req.target, &req.body),
                        None => Err(std::io::Error::other("not connected")),
                    };
                    let done_us = since(Instant::now());
                    let reply = match result {
                        Ok((status, body)) => Some(Reply::reduce(status, body)),
                        Err(_) => {
                            conn = Conn::connect(addr).ok();
                            None
                        }
                    };
                    let base = tl.offset_us(start);
                    tl.span(
                        CLIENT_TRACK,
                        &format!("request#{i}"),
                        base + req.due_us,
                        (done_us - req.due_us) as f64,
                    );
                    let sample = Sample {
                        due_us: req.due_us,
                        send_us,
                        done_us,
                        late_us,
                        reply,
                    };
                    out.lock().expect("sample log poisoned").push((i, sample));
                }
            });
        }
    });
    let mut samples = out.into_inner().expect("sample log poisoned");
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// A fixed-rate open-loop schedule for `n` requests: request `i` is due
/// at `(i + ½ + j) / rate` with a seeded jitter `j` uniform in
/// `[-0.45, 0.45)`, so arrivals never bunch up beyond one gap.
pub fn arrivals(rng: &mut crate::stats::Rng, rate: f64, n: usize) -> Vec<u64> {
    let gap_us = 1e6 / rate;
    (0..n)
        .map(|i| ((i as f64 + 0.5 + 0.9 * (rng.unit() - 0.5)) * gap_us) as u64)
        .collect()
}
