//! The `rta-admit --serve-unix` daemon as a child process, and one
//! closed-loop connection to it.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bursty_rta::daemon::ShardedService;
use bursty_rta::proto::Request;
use rta_core::service::ServiceConfig;

use crate::stats::Outcome;
use crate::tenants::{load_request, tenant_name};
use crate::{peak_rss_mb, Args};

/// How long a reply (or the daemon's start) may take before the request
/// counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon; dropping it kills the process, waits for it and
/// removes its socket.
pub struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Spawn `rta-admit --serve-unix` on a socket under `dir` (a relative
    /// path keeps it short of the unix socket path limit).
    pub fn spawn(bin: &Path, dir: &Path, tag: usize) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let sock = dir.join(format!("e2e-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(bin)
            .arg("--serve-unix")
            .arg(&sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(Daemon { child, sock })
    }

    /// Connect as soon as the daemon listens, then block on a `PING`.
    /// Connection attempts spin with a yield (no sleep quantum), so the
    /// measured start is not rounded up to a polling period.
    pub fn connect(&mut self) -> io::Result<Conn> {
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(&self.sock) {
                Ok(s) => break s,
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("daemon exited: {status}")));
                    }
                    if t0.elapsed() > TIMEOUT {
                        return Err(e);
                    }
                    std::thread::yield_now();
                }
            }
        };
        stream.set_read_timeout(Some(TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        };
        let pong = conn.request("PING")?;
        if pong != "PONG" {
            return Err(io::Error::other(format!("PING answered '{pong}'")));
        }
        Ok(conn)
    }

    /// Peak resident set of the daemon so far.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// One connection; every request is its own batch (a blank line flushes
/// it), so the daemon answers before the next request is sent.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Conn {
    /// Send one request (its lines, without the flushing blank line) and
    /// return the reply line without its newline.
    pub fn request(&mut self, text: &str) -> io::Result<String> {
        let mut msg = String::with_capacity(text.len() + 2);
        msg.push_str(text);
        msg.push_str("\n\n");
        self.writer.write_all(msg.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.buf.trim_end_matches(['\n', '\r']).to_string())
    }
}

/// Where the daemons' sockets live, relative to the checkout root.
const SOCKET_DIR: &str = "e2ebench/.run";

/// A daemon that has been started cold, answered `PING` and loaded every
/// tenant, plus how long that took.
pub struct Warm {
    pub daemon: Daemon,
    pub conn: Conn,
    /// Spawn → `PING` answered → last `LOAD` answered, in seconds.
    pub setup_s: f64,
    /// The `LOAD` requests and their replies.
    pub transcript: Vec<(String, String)>,
}

/// The `LOAD` requests for tenants `t0`, `t1`, … holding `systems`, and
/// the measured daemon started cold with them (`None` after recording
/// why it could not start).
pub fn start_measured(
    args: &Args,
    systems: &[String],
    out: &mut Outcome,
) -> Option<(PathBuf, Vec<String>, Warm)> {
    let Some(bin) = args.daemon.clone() else {
        out.mismatch("no --daemon binary given".into());
        return None;
    };
    let loads: Vec<String> = systems
        .iter()
        .enumerate()
        .map(|(i, s)| load_request(&tenant_name(i), s))
        .collect();
    match cold_start(&bin, &loads, 0) {
        Ok(warm) => Some((bin, loads, warm)),
        Err(e) => {
            out.mismatch(format!("daemon start: {e}"));
            None
        }
    }
}

/// Start the daemon cold: spawn it, connect, and load every tenant one
/// request at a time.
pub fn cold_start(bin: &Path, loads: &[String], tag: usize) -> io::Result<Warm> {
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(bin, Path::new(SOCKET_DIR), tag)?;
    let mut conn = daemon.connect()?;
    let mut transcript = Vec::with_capacity(loads.len());
    for load in loads {
        let reply = conn.request(load)?;
        transcript.push((load.clone(), reply));
    }
    Ok(Warm {
        daemon,
        conn,
        setup_s: t0.elapsed().as_secs_f64(),
        transcript,
    })
}

/// Time one more cold start (the daemon is stopped again at once) and
/// check its `LOAD` replies against the measured daemon's.
pub fn sample_cold_start(
    bin: &Path,
    loads: &[String],
    tag: usize,
    want: &[(String, String)],
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) {
    match cold_start(bin, loads, tag) {
        Ok(w) => {
            setups.push(w.setup_s);
            if w.transcript != want {
                out.mismatch(format!("cold start {tag} loaded differently"));
            }
        }
        Err(e) => out.mismatch(format!("cold start {tag}: {e}")),
    }
}

/// Parse a request as the daemon's serve loop does: the first line, then
/// any `LOAD` payload lines.
pub fn parse_request(text: &str) -> Result<Request, String> {
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("").trim();
    Request::parse(first, || lines.next().map(str::to_string))
}

/// A fresh in-process service shaped like the daemon's (one shard per
/// pool participant, default configuration).
pub fn replica() -> std::sync::Arc<ShardedService> {
    std::sync::Arc::new(ShardedService::with_pool_shards(ServiceConfig::default()))
}

/// How long one request spent in each layer of an in-process replay.
#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    pub parse_us: f64,
    pub apply_us: f64,
    pub format_us: f64,
}

/// Replay every request of `transcript` through an in-process replica,
/// require each reply to equal the socket's byte for byte, and return the
/// time each request spent in `Request::parse`, `ShardedService::apply`
/// and the `Response` display.
pub fn replay(transcript: &[(String, String)], out: &mut Outcome) -> Vec<LayerTimes> {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let svc = replica();
    let mut times = Vec::with_capacity(transcript.len());
    for (req, reply) in transcript {
        let mut t = LayerTimes::default();
        let t0 = Instant::now();
        let parsed = parse_request(req);
        t.parse_us = us(t0);
        let want = match parsed {
            Ok(r) => {
                let t0 = Instant::now();
                let resp = svc.apply(&r);
                t.apply_us = us(t0);
                let t0 = Instant::now();
                let line = resp.to_string();
                t.format_us = us(t0);
                line
            }
            Err(e) => format!("ERR {e}"),
        };
        if &want != reply {
            out.failed += 1;
            out.mismatch(format!("socket '{reply}' != in-process '{want}'"));
        }
        times.push(t);
    }
    times
}
