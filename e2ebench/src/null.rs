//! The null server: an NDJSON echo server that answers every line with
//! the line itself and does nothing else. Driven by the same generator at
//! the same rates as `serve`, it measures what the client and loopback
//! TCP cost, so that cost is reported beside serve's figures and never
//! folded into them.

use std::io::{self, Read, Write};
use std::net::TcpListener;

/// Serve until killed. Prints `null-server listening on ADDR` first.
pub fn run() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    println!("null-server listening on {}", listener.local_addr()?);
    io::stdout().flush()?;
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            let mut conn = conn?;
            conn.set_nodelay(true)?;
            scope.spawn(move || {
                let mut buf = vec![0u8; 64 * 1024];
                let mut pending = Vec::new();
                loop {
                    let n = match conn.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => n,
                    };
                    pending.extend_from_slice(&buf[..n]);
                    let Some(end) = pending.iter().rposition(|&b| b == b'\n') else {
                        continue;
                    };
                    if conn.write_all(&pending[..=end]).is_err() {
                        return;
                    }
                    pending.drain(..=end);
                }
            });
        }
        Ok(())
    })
}
