//! Process hygiene for the service workload: start `navp-serve` with
//! its PE mesh, find its PE processes, read their peak memory, and
//! always stop and reap all of them — on success, on error and on
//! panic (through `Drop`).
//!
//! The benchmark makes itself the subreaper of its descendants, so PE
//! daemons that outlive their service (a service that died during
//! start-up exits without stopping the PEs it spawned) are reparented
//! to it and can still be stopped and reaped.

use navp_serve::client;
use navp_serve::proto::{Request, Response};
use std::fs::File;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_CHILD_SUBREAPER: i32 = 36;
/// Attempts to start the service; a start fails when another process
/// takes the free port between our probe and the service's bind.
const START_ATTEMPTS: usize = 3;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

/// Send `sig` to `pid`; `false` if it could not be delivered.
fn signal(pid: u32, sig: i32) -> bool {
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; a positive pid names exactly one process.
    unsafe { kill(pid, sig) == 0 }
}

/// Make this process the reaper of its orphaned descendants.
pub fn become_subreaper() -> bool {
    // SAFETY: PR_SET_CHILD_SUBREAPER takes one integer flag and no
    // pointers; the remaining arguments are ignored.
    unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0 }
}

/// `(state, ppid)` from `/proc/<pid>/stat`, if the process exists.
fn stat(pid: u32) -> Option<(char, u32)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses: fields start
    // after the last ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    let state = f.next()?.chars().next()?;
    let ppid = f.next()?.parse().ok()?;
    Some((state, ppid))
}

/// Whether `pid` is a live (not zombie, not dead) process.
fn is_running(pid: u32) -> bool {
    matches!(stat(pid), Some((s, _)) if s != 'Z' && s != 'X')
}

/// Pids of the children of `ppid`, zombies included.
fn children_of(ppid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| matches!(stat(pid), Some((_, p)) if p == ppid))
        .collect();
    out.sort_unstable();
    out
}

/// Kill and reap every remaining child of this process — once the
/// service itself is reaped, those are PE daemons reparented here.
/// Returns the pids that were still running.
fn reap_orphans() -> Vec<u32> {
    let mut running = Vec::new();
    for pid in children_of(std::process::id()) {
        if is_running(pid) {
            signal(pid, SIGKILL);
            running.push(pid);
        }
        if let Ok(p) = i32::try_from(pid) {
            // SAFETY: waitpid(2) on our own child; a null status pointer
            // is allowed and nothing else is written.
            unsafe { waitpid(p, std::ptr::null_mut(), 0) };
        }
    }
    running
}

/// Peak resident set (`VmHWM`) of `pid` in kB, if readable.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in kB.
pub fn self_peak_rss_kb() -> u64 {
    peak_rss_kb(std::process::id()).unwrap_or(0)
}

/// A free loopback `host:port` (bound and released).
fn free_local_addr() -> std::io::Result<String> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    Ok(l.local_addr()?.to_string())
}

/// A running `navp-serve --spawn <pes>` and its PE processes.
pub struct Service {
    child: Option<Child>,
    /// The service's submit address.
    pub addr: String,
    /// Pids of its `navp-pe` daemons.
    pub pes: Vec<u32>,
}

/// Why a start attempt failed, and whether another attempt may succeed.
struct StartError {
    retry: bool,
    detail: String,
}

impl Service {
    /// Start the service from `bin_dir` with its working directory (and
    /// so its log and any postmortem) in `work_dir`, and wait until it
    /// answers a `List` request with all `pes` daemons up.
    pub fn start(bin_dir: &Path, work_dir: &Path, pes: usize) -> Result<Service, String> {
        std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let mut failures = Vec::new();
        for attempt in 0..START_ATTEMPTS {
            match Service::try_start(bin_dir, work_dir, pes, attempt) {
                Ok(svc) => return Ok(svc),
                Err(e) if e.retry => failures.push(e.detail),
                Err(e) => return Err(e.detail),
            }
        }
        Err(failures.join("; "))
    }

    fn try_start(
        bin_dir: &Path,
        work_dir: &Path,
        pes: usize,
        attempt: usize,
    ) -> Result<Service, StartError> {
        let fatal = |detail: String| StartError {
            retry: false,
            detail,
        };
        let log = File::create(work_dir.join(format!("navp-serve-{attempt}.log")))
            .map_err(|e| fatal(format!("service log: {e}")))?;
        let log2 = log
            .try_clone()
            .map_err(|e| fatal(format!("service log: {e}")))?;
        let addr = free_local_addr().map_err(|e| fatal(format!("free port: {e}")))?;
        let child = Command::new(bin_dir.join("navp-serve"))
            .args(["--listen", &addr, "--spawn", &pes.to_string()])
            .current_dir(work_dir)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| fatal(format!("spawning navp-serve: {e}")))?;
        // From here on, dropping `svc` kills and reaps everything.
        let mut svc = Service {
            child: Some(child),
            addr,
            pes: Vec::new(),
        };
        let t = Instant::now();
        loop {
            if let Ok(Response::Jobs { .. }) = client::rpc(&svc.addr, &Request::List) {
                break;
            }
            let exited = svc.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(StartError {
                    retry: true,
                    detail: format!("navp-serve exited during start-up ({status}); see its log"),
                });
            }
            if t.elapsed() > Duration::from_secs(20) {
                return Err(fatal("navp-serve did not answer within 20 s".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The service spawns its PEs before it starts listening, so they
        // are all up by now; anything else is a failed start.
        svc.pes = children_of(svc.pid())
            .into_iter()
            .filter(|&p| is_running(p))
            .collect();
        if svc.pes.len() != pes {
            return Err(fatal(format!(
                "found {} of {pes} navp-pe daemons",
                svc.pes.len()
            )));
        }
        Ok(svc)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Highest peak resident set among the service and its PEs, kB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::iter::once(self.pid())
            .chain(self.pes.iter().copied())
            .filter_map(peak_rss_kb)
            .max()
            .unwrap_or(0)
    }

    /// Drain and stop the service (SIGTERM), reap it, and fail if it
    /// did not exit cleanly or any of its PEs is still running.
    pub fn stop(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        signal(child.id(), SIGTERM);
        let t = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        let mut problems = Vec::new();
        match status {
            Some(s) if s.success() => {}
            Some(s) => problems.push(format!("navp-serve exited with {s}")),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                problems.push("navp-serve did not drain within 30 s".to_string());
            }
        }
        let t = Instant::now();
        while self.pes.iter().any(|&p| is_running(p)) && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        for pe in reap_orphans() {
            problems.push(format!("navp-pe {pe} was left running"));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Service {
    /// The error and panic path: kill everything without draining.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            for &pe in &self.pes {
                if is_running(pe) {
                    signal(pe, SIGKILL);
                }
            }
            let _ = child.kill();
            let _ = child.wait();
            reap_orphans();
        }
    }
}
