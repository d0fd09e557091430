//! The open-loop load generator: one thread, nonblocking loopback
//! connections multiplexed with `ppoll(2)`, requests sent on a fixed
//! schedule whatever the server does, and every request timed from the
//! moment it was due.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::util;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Wait for readiness on `fds` for at most `timeout`.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs, `ts` outlives the call, and a null sigmask leaves
    // the signal mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// One nonblocking connection with its pending output and partial input.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    input: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            input: Vec::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(())
    }

    /// Read what is available and hand every complete line to `line`.
    fn pump(&mut self, scratch: &mut [u8], mut line: impl FnMut(&[u8])) -> io::Result<bool> {
        let mut open = true;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    open = false;
                    break;
                }
                Ok(n) => self.input.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(nl) = self.input[start..].iter().position(|&b| b == b'\n') {
            line(&self.input[start..start + nl]);
            start += nl + 1;
        }
        self.input.drain(..start);
        Ok(open)
    }
}

/// Open `n` connections to `addr`.
pub fn connect(addr: &str, n: usize) -> io::Result<Vec<Conn>> {
    (0..n).map(|_| Conn::open(addr)).collect()
}

/// How requests are released.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Rate(f64),
    /// Closed batch: at most this many requests in flight; each is due
    /// when it is released.
    Window(usize),
}

/// What one batch of requests saw.
pub struct Outcome {
    /// Latency from due time to the reply's arrival, microseconds;
    /// `None` when no reply came before the drain deadline.
    pub lat_us: Vec<Option<f64>>,
    /// The reply line for each request, when one arrived.
    pub replies: Vec<Option<Vec<u8>>>,
    /// How late the generator released each request, microseconds.
    pub late_us: Vec<f64>,
    /// Wall time from the first due time to the last reply.
    pub wall_s: f64,
    /// CPU seconds the generator thread used.
    pub cpu_s: f64,
}

/// The request id a reply (or an echoed request) carries: the number
/// after the first `"id":`.
pub fn reply_id(line: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"id\":";
    let at = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&line[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Send `lines` (request `i` carries id `first_id + i`) over `conns`
/// round-robin, paced by `pace`, and collect replies until all arrived
/// or `drain` passed with neither a release nor a reply.
pub fn drive(
    conns: &mut [Conn],
    lines: &[Vec<u8>],
    first_id: u64,
    pace: Pace,
    drain: Duration,
) -> io::Result<Outcome> {
    let n = lines.len();
    let mut out = Outcome {
        lat_us: vec![None; n],
        replies: vec![None; n],
        late_us: Vec::with_capacity(n),
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    let mut due = vec![Duration::ZERO; n];
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut scratch = vec![0u8; 64 * 1024];
    let cpu0 = util::thread_cpu_s();
    // An open-loop schedule starts just ahead of now so the first
    // request is not late by construction.
    let start = match pace {
        Pace::Rate(_) => Instant::now() + Duration::from_millis(2),
        Pace::Window(_) => Instant::now(),
    };
    let mut next = 0usize;
    let mut answered = 0usize;
    let mut last_reply = start;
    let mut progress = Instant::now();

    while answered < n {
        let now = Instant::now();
        // Release every request that is due.
        while next < n {
            let at = match pace {
                Pace::Rate(rate) => start + Duration::from_secs_f64(next as f64 / rate),
                Pace::Window(w) if next - answered < w => now.max(start),
                Pace::Window(_) => break,
            };
            if at > now {
                break;
            }
            due[next] = at - start;
            out.late_us.push(util::us(now - at));
            let c = &mut conns[next % fds.len()];
            c.out.extend_from_slice(&lines[next]);
            c.flush()?;
            next += 1;
            progress = now;
        }
        let stalled = now.saturating_duration_since(progress);
        if stalled >= drain {
            break;
        }
        let timeout = match (pace, next < n) {
            (Pace::Rate(rate), true) => {
                (start + Duration::from_secs_f64(next as f64 / rate)).saturating_duration_since(now)
            }
            _ => drain - stalled,
        };
        for (fd, c) in fds.iter_mut().zip(conns.iter()) {
            fd.events = if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            fd.revents = 0;
        }
        wait(&mut fds, timeout)?;
        let now = Instant::now();
        for (fd, c) in fds.iter().zip(conns.iter_mut()) {
            if fd.revents & POLLOUT != 0 {
                c.flush()?;
            }
            if fd.revents & !POLLOUT == 0 {
                continue;
            }
            let open = c.pump(&mut scratch, |line| {
                let Some(i) = reply_id(line)
                    .and_then(|id| id.checked_sub(first_id))
                    .map(|i| i as usize)
                    .filter(|&i| i < next && out.replies[i].is_none())
                else {
                    return;
                };
                out.lat_us[i] = Some(util::us(now - start) - util::us(due[i]));
                out.replies[i] = Some(line.to_vec());
                answered += 1;
                last_reply = now;
                progress = now;
            })?;
            if !open {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server closed a benchmark connection",
                ));
            }
        }
    }
    out.wall_s = last_reply.saturating_duration_since(start).as_secs_f64();
    out.cpu_s = util::thread_cpu_s() - cpu0;
    Ok(out)
}
