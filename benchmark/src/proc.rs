//! The program under test as child processes: `wodex load` and
//! `wodex serve`, plus the `/proc` readings taken of them.

use crate::http::Client;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One timed `wodex load` child.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Bytes of every file in the output directory.
    pub stored_bytes: u64,
}

/// Bulk-loads `nt` into a fresh `out` directory.
pub fn load(wodex: &Path, nt: &Path, out: &Path, mem_cap_mb: u32) -> Result<LoadRun, String> {
    if out.exists() {
        std::fs::remove_dir_all(out).map_err(|e| format!("clear {}: {e}", out.display()))?;
    }
    let started = Instant::now();
    let output = Command::new(wodex)
        .arg("load")
        .arg(nt)
        .arg("--out")
        .arg(out)
        .args(["--mem-cap-mb", &mem_cap_mb.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {} load: {e}", wodex.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "wodex load failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(LoadRun {
        wall_s,
        stored_bytes: dir_bytes(out)?,
    })
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// A child process that is killed and reaped when dropped, so a failing
/// or panicking harness never leaves a server behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        // Errors mean the child already exited; there is nothing to do.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `wodex serve` child.
pub struct Server {
    child: Reaped,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Boots `wodex serve --store seg:<dir> --workers 2 --sessions 3` on
    /// an ephemeral port (no `--port`) and returns once `/healthz`
    /// answers 200.
    pub fn boot(wodex: &Path, seg_dir: &Path) -> Result<Server, String> {
        let mut child = Reaped(
            Command::new(wodex)
                .args(["serve", "--store"])
                .arg(format!("seg:{}", seg_dir.display()))
                .args(["--workers", "2", "--sessions", "3"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn {} serve: {e}", wodex.display()))?,
        );
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr: SocketAddr = loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("read serve stdout: {e}"))?;
            if n == 0 {
                return Err("wodex serve exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("listening on http://") {
                break a
                    .parse()
                    .map_err(|e| format!("bad listening line {line:?}: {e}"))?;
            }
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match Client::new(addr).get("/healthz") {
                Ok(r) if r.status == 200 => break,
                _ if Instant::now() > deadline => {
                    return Err("no /healthz 200 within 120 s".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// Stops the server through `POST /admin/shutdown` and waits for the
    /// process to report a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let r = Client::new(self.addr)
            .post("/admin/shutdown", b"")
            .map_err(|e| format!("POST /admin/shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("/admin/shutdown answered {}", r.status));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.0.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() > deadline => {
                    return Err("server still running 30 s after shutdown".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() || !rest.contains("shut down cleanly") {
            return Err(format!("server exit {status}, output {rest:?}"));
        }
        Ok(())
    }
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`) in MB.
pub fn status_mb(pid: u32, field: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in {path}"))
}

/// User plus system CPU seconds the process (all threads, exited ones
/// included) has consumed. `/proc/<pid>/stat` counts in `USER_HZ` ticks,
/// which the Linux ABI fixes at 100 on x86-64 and aarch64.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall.
    let after = text.rsplit_once(')').map(|(_, a)| a).unwrap_or("");
    let fields: Vec<&str> = after.split_ascii_whitespace().collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => match (u.parse::<f64>(), s.parse::<f64>()) {
            (Ok(u), Ok(s)) => Ok((u + s) / 100.0),
            _ => Err(format!("bad cpu fields in {path}")),
        },
        _ => Err(format!("short {path}")),
    }
}

/// The built `wodex` binary, beside the harness's own executable (both
/// land in `<target dir>/release`).
pub fn wodex_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name("wodex");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it with benchmark/run.sh",
            path.display()
        ))
    }
}
