//! Server processes: build, spawn, wait for `listening on`, read CPU and
//! peak RSS from `/proc`, and stop them. Every spawned process is owned by
//! a [`Proc`] whose `Drop` kills and reaps it, so an early error never
//! leaves a server running.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a process may take to print its listening line(s). Startup
/// includes recovery, which replays snapshot + WAL.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(90);

/// The CPU every server process is pinned to, except a `routed` follower.
pub const SERVER_CPU: &str = "0";

/// Clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// Build the release server binaries from the checkout at `root` and
/// return the directory holding them (`$CARGO_TARGET_DIR/release`, or
/// `target/release` when unset).
pub fn build_servers(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "-q",
            "--bin",
            "adcast-serve",
            "--bin",
            "adcast-router",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of the server binaries failed: {status}"
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    Ok(target.join("release"))
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU of a `routed` follower: the first one past [`SERVER_CPU`], as a
/// replica on another machine has its own, beside the harness. On CPU 0
/// with the router and the primary, the follower's and the primary's
/// engines took turns at one CPU's caches on every op of the ack ladder,
/// and `routed`'s phase-B CPU per delta moved between 117 and 164 µs from
/// run to run. On one CPU it stays on [`SERVER_CPU`].
pub fn follower_cpu() -> &'static str {
    if cpus() >= 2 {
        "1"
    } else {
        SERVER_CPU
    }
}

/// Pin the calling thread, and so every thread it spawns later, to every
/// CPU but [`SERVER_CPU`] with `taskset -p`. The open loop spins while it
/// waits for fast replies; pinned, it cannot be balanced onto the server's
/// CPU. Without `taskset`, or on one CPU, the harness runs unpinned.
pub fn pin_harness() {
    let cpus = cpus();
    if cpus < 2 {
        return;
    }
    let _ = Command::new("taskset")
        .args(["-p", "-c", &format!("1-{}", cpus - 1)])
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Write every dirty page back to disk with `sync`, and wait for it. The
/// servers run with fsync off, so a run's WAL and snapshots drain to disk
/// in the background; done before a timed step, this keeps that drain, an
/// earlier run's included, out of the step's time.
pub fn write_back() {
    let _ = Command::new("sync")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Seconds the hypervisor has kept `cpu` from running while it had work
/// so far: the `steal` column of its `/proc/stat` line. 0 where the kernel
/// reports none (no hypervisor, or no such line).
pub fn steal_seconds_of(cpu: &str) -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    steal_seconds(&stat, cpu)
}

fn steal_seconds(stat: &str, cpu: &str) -> f64 {
    let label = format!("cpu{cpu}");
    stat.lines()
        .map(|l| l.split_whitespace())
        .find_map(|mut f| (f.next() == Some(label.as_str())).then_some(f))
        // user nice system idle iowait irq softirq steal
        .and_then(|mut f| f.nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Spawn `cmd args…` with stdout piped and stderr appended to `log`.
fn spawn_with(cmd: &mut Command, args: &[String], log: &File) -> std::io::Result<Child> {
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log.try_clone()?)
        .spawn()
}

/// A spawned server or router.
pub struct Proc {
    /// Short role name for logs and errors.
    pub name: String,
    /// Client address from the `listening on` line.
    pub addr: String,
    /// Observability address from the `obs listening on` line.
    pub obs: Option<String>,
    /// The CPU it is pinned to.
    pub cpu: &'static str,
    child: Child,
    /// Held open so a later stdout write cannot hit a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    /// Spawn `bin args…` on `cpu`, stderr appended to `log`, and wait for
    /// its `listening on` line (and `obs listening on` when `want_obs`).
    pub fn spawn(
        name: &str,
        bin: &Path,
        args: &[String],
        log: &Path,
        want_obs: bool,
        cpu: &'static str,
    ) -> Result<Proc, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        // `taskset` execs the binary, so the pid is the server's. Without
        // `taskset` the server runs unpinned.
        let mut pinned = Command::new("taskset");
        pinned.arg("-c").arg(cpu).arg(bin);
        let mut child = match spawn_with(&mut pinned, args, &stderr) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                spawn_with(&mut Command::new(bin), args, &stderr)
            }
            other => other,
        }
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // Read the listening lines on a helper thread so a silent child
        // cannot block the harness past the timeout.
        let (tx, rx) = mpsc::sync_channel(1);
        let listener = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut addr = None;
            let mut obs = None;
            let mut line = String::new();
            while addr.is_none() || (want_obs && obs.is_none()) {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let l = line.trim();
                        if let Some(a) = l.strip_prefix("obs listening on ") {
                            obs = Some(a.to_string());
                        } else if let Some(a) = l.strip_prefix("listening on ") {
                            addr = Some(a.to_string());
                        }
                    }
                }
            }
            let _ = tx.send((addr, obs, reader));
        });
        let mut proc = Proc {
            name: name.to_string(),
            addr: String::new(),
            obs: None,
            cpu,
            child,
            _stdout: None,
        };
        match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok((Some(addr), obs, stdout)) if !want_obs || obs.is_some() => {
                proc.addr = addr;
                proc.obs = obs;
                proc._stdout = Some(stdout);
                let _ = listener.join();
                Ok(proc)
            }
            _ => {
                proc.kill();
                let _ = listener.join();
                Err(format!(
                    "{name} did not print its listening line (see {})",
                    log.display()
                ))
            }
        }
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (user + system, all threads) consumed so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesized command name; utime and stime are
        // the 14th and 15th fields of the line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("malformed {path}"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok((tick(11)? + tick(12)?) / USER_HZ)
    }

    /// Peak resident set size (`VmHWM`) in bytes.
    pub fn rss_peak_bytes(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Wait up to `timeout` for the process to exit on its own (after a
    /// Shutdown RPC); kill it if it does not.
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!("{} did not exit after shutdown", self.name));
                }
                Err(e) => return Err(format!("wait {}: {e}", self.name)),
            }
        }
    }

    /// Has the process exited?
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    fn kill(&mut self) {
        if !self.exited() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_read_from_the_server_cpu_line() {
        let stat = "cpu  1145768 0 124568 4793425 3333 0 20994 120825 0 0\n\
                    cpu0 748141 0 95571 2178616 2418 0 10737 65755 0 0\n\
                    cpu1 397626 0 28996 2614808 915 0 10256 55070 0 0\n";
        assert_eq!(steal_seconds(stat, "0"), 657.55);
        assert_eq!(steal_seconds(stat, "1"), 550.70);
        assert_eq!(steal_seconds(stat, "7"), 0.0);
        assert_eq!(steal_seconds("cpu0 1 2 3\n", "0"), 0.0);
    }
}
