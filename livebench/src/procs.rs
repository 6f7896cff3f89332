//! Server processes: building and starting `mqdiv serve` / `mqdiv route`,
//! reading their CPU time and peak memory from `/proc`, and stopping them.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mqd_server::Client;

/// Builds `mqdiv` from the checkout's workspace (a no-op when it is up to
/// date) and returns the binary's path.
pub fn build_mqdiv() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "mqd-cli",
            "--bin",
            "mqdiv",
        ])
        .status()
        .map_err(|e| format!("running {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building mqdiv failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("mqdiv");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// One running server or router process.
pub struct Proc {
    child: Child,
    /// Keeps the announce pipe open for the process's lifetime.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Proc {
    /// Starts `bin args…`, logging stderr to `log`, and waits for the
    /// `listening on <addr>` announce line.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let log_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child stdout not captured".into());
        };
        let mut out = BufReader::new(out);
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                child,
                _stdout: out,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} {args:?} did not announce (see {})",
                    bin.display(),
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `DRAIN`s the process and waits for it to exit (SIGKILL after 10 s).
    pub fn drain(mut self) {
        if let Ok(mut c) = Client::connect(self.addr.as_str()) {
            let _ = c.request("DRAIN");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Every exit path, an early error included, leaves no process behind.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// user+sys CPU of `pid` in microseconds, all threads, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks).
pub fn cpu_us(pid: u32, ticks_per_s: u64) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / ticks_per_s.max(1))
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second for `/proc` CPU fields.
pub fn clock_ticks() -> u64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
        .unwrap_or(100)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Output of a short command, trimmed; `unknown` when it cannot run.
pub fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
