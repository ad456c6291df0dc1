//! The system under test as a separate process (`ldp-cli serve`), and
//! the `/proc` readings the benchmark takes of it and of the machine.

use ldp_server::{Control, Request, Response};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linux reports process CPU time in `USER_HZ` ticks, which is 100 on
/// every architecture the kernel supports for userspace ABI purposes.
const USER_HZ: f64 = 100.0;

/// How long a server may take to exit after a shutdown request before
/// it is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Build `ldp-cli` from the checkout the benchmark runs in and return
/// its path. Cargo puts it where it puts everything else: under
/// `CARGO_TARGET_DIR` (relative to `root`) when set, else `target/`.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ldp_cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ldp-cli failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    let bin = target.join("release").join("ldp-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built ldp-cli but {bin:?} does not exist"))
    }
}

/// A running `ldp-cli serve` child. Dropping it kills the process if it
/// is still alive, so an error path never leaks a server.
pub struct ServerProcess {
    child: Child,
    /// The bound `host:port`, read from the server's first stderr line.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Start `bin serve` on a free loopback port with `shards` workers
    /// and wait for it to print its bound address.
    pub fn spawn(bin: &Path, shards: usize) -> Result<ServerProcess, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--shards"])
            .arg(shards.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin:?}: {e}"))?;
        let stderr = child
            .stderr
            .take()
            .ok_or("server stderr was not captured")?;
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        // Keep the pipe drained so later diagnostics never block it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(ServerProcess {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful shutdown and wait for the process to exit
    /// (killing it after a grace period).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Control::connect(&self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        self.reap();
        match (asked, status) {
            (Err(e), _) => Err(format!("shutdown request failed: {e}")),
            (Ok(Response::Shutdown(_)), Some(status)) if status.success() => Ok(()),
            (Ok(Response::Shutdown(_)), status) => {
                Err(format!("server did not exit cleanly: {status:?}"))
            }
            (Ok(other), _) => Err(format!("unexpected shutdown response: {other:?}")),
        }
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.reap();
    }
}

/// CPU time (user + system, all threads) a process has used, in
/// seconds. `pid` `None` reads the benchmark's own process.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_string(),
        |p| format!("/proc/{p}/stat"),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = text
        .rsplit_once(") ")
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// One numeric field of `/proc/<pid>/status` (e.g. `VmHWM` in kB,
/// `Threads`). `pid` `None` reads the benchmark's own process.
pub fn status_field(pid: Option<u32>, field: &str) -> Result<u64, String> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|line| {
            line.strip_prefix(field)
                .and_then(|rest| rest.strip_prefix(':'))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .ok_or_else(|| format!("{path} has no {field} field"))
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the machine-wide counters now.
    #[must_use]
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted inside user.
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of CPU time the hypervisor stole since `earlier`.
    #[must_use]
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// The machine's core count as the benchmark sees it.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_sane() {
        assert!(cpu_seconds(None).unwrap() >= 0.0);
        assert!(status_field(None, "Threads").unwrap() >= 1);
        assert!(status_field(None, "VmHWM").unwrap() > 0);
        assert!(status_field(None, "NoSuchField").is_err());
        let a = CpuTimes::now();
        let b = CpuTimes::now();
        let steal = b.steal_since(&a);
        assert!((0.0..=1.0).contains(&steal));
    }
}
