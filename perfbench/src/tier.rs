//! The processes under test: fresh `sam-cli serve` / `sam-cli router`
//! children, each in its own process group so that stopping one also stops
//! every worker it spawned.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process groups still running, for the watchdog.
static GROUPS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// SIGKILL every live process group this run started. Used by the
/// watchdog before it exits; normal teardown goes through `Drop`.
pub fn kill_all() {
    let groups: Vec<u32> = GROUPS.lock().map(|g| g.clone()).unwrap_or_default();
    for pgid in groups {
        kill_group(pgid);
    }
}

fn kill_group(pgid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pgid}")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// A running child process group.
pub struct Proc {
    child: Child,
    /// The address it announced (`host:port`).
    pub addr: String,
    /// Extra pids in the group to wait out on stop (a router's workers).
    pub members: Vec<u32>,
}

impl Proc {
    /// Spawn `program args...` and wait until it prints
    /// `listening on http://ADDR` on stdout.
    pub fn spawn(program: &Path, args: &[String], cwd: &Path) -> Result<Proc, String> {
        let mut child = Command::new(program)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        GROUPS
            .lock()
            .map_err(|_| "process table poisoned")?
            .push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout for the child's whole life so it can never
        // block on a full pipe; the thread ends when the child exits.
        std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if !sent {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            members: Vec::new(),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) if !addr.is_empty() => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!(
                "{} did not announce its address",
                program.display()
            )),
        }
    }

    /// Process id of the group leader.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) of the leader and its members, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.pid())
            .chain(self.members.iter().copied())
            .map(vm_hwm_mb)
            .sum()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let pgid = self.child.id();
        kill_group(pgid);
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Members were reparented when the leader died; wait until the
        // kernel has reaped them too.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && self.members.iter().any(|pid| is_running(*pid)) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Ok(mut groups) = GROUPS.lock() {
            groups.retain(|g| *g != pgid);
        }
    }
}

/// Whether `pid` exists and is not a zombie awaiting its reaper.
fn is_running(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit_once(')')
                .map(|(_, rest)| rest.trim_start().to_string())
        })
        .is_some_and(|rest| !rest.starts_with('Z') && !rest.starts_with('X'))
}

/// VmHWM of `pid` in MB (0 when unreadable).
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// VmHWM of this process in MB.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_mb(std::process::id())
}
