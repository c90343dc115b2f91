//! `swatd` child processes and what `/proc` says about them.
//!
//! Every child is started on `127.0.0.1:0` with `--port-file`, dies
//! with the benchmark (`PR_SET_PDEATHSIG`), and is killed and reaped
//! when its [`Cluster`] is dropped — on success, on a failed check and
//! on a panic alike — so no stray daemon competes with the next run.

use std::fs;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sync();
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
const SIGKILL: u64 = 9;
const SC_CLK_TCK: i32 = 2;

/// Pin this process, and the children it starts later, to the lowest
/// CPU it may run on. Returns that CPU, or `None` if pinning failed.
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut mask = 0u64;
    // SAFETY: both calls get a pointer to a live u64 and its size.
    unsafe {
        if sched_getaffinity(0, 8, &mut mask) != 0 || mask == 0 {
            return None;
        }
        let cpu = mask.trailing_zeros();
        let one = 1u64 << cpu;
        (sched_setaffinity(0, 8, &one) == 0).then_some(cpu)
    }
}

/// Flush every dirty page to disk (`sync(2)`).
pub fn sync_disks() {
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Ask the kernel for 1 µs timer slack on this thread, so the open-loop
/// generator's sleeps end when the schedule says (the default slack is
/// 50 µs).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
    }
}

/// Fail with a plain message unless `swatd` exists and is newer than
/// every source file it is built from.
pub fn check_fresh(swatd: &Path, root: &Path) -> Result<(), String> {
    let built = fs::metadata(swatd)
        .and_then(|m| m.modified())
        .map_err(|_| {
            format!(
                "swatd binary not found at {}; build it with \
                 `cargo build --release -p swat-cli --bin swatd`",
                swatd.display()
            )
        })?;
    let mut newest = (SystemTime::UNIX_EPOCH, PathBuf::new());
    let mut visit = vec![root.join("crates")];
    for f in ["Cargo.toml", "Cargo.lock"] {
        note_mtime(&root.join(f), &mut newest);
    }
    while let Some(dir) = visit.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                note_mtime(&path, &mut newest);
            }
        }
    }
    if newest.0 > built {
        return Err(format!(
            "swatd at {} is older than {}; rebuild it with \
             `cargo build --release -p swat-cli --bin swatd`",
            swatd.display(),
            newest.1.display()
        ));
    }
    Ok(())
}

fn note_mtime(path: &Path, newest: &mut (SystemTime, PathBuf)) {
    if let Ok(t) = fs::metadata(path).and_then(|m| m.modified()) {
        if t > newest.0 {
            *newest = (t, path.to_owned());
        }
    }
}

/// One running `swatd`.
pub struct Daemon {
    child: Child,
    /// The bound address, read from its port file.
    pub addr: SocketAddr,
}

impl Daemon {
    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// A leader and its replicas, killed and reaped on drop.
pub struct Cluster {
    /// Shard replicas, shard order.
    pub replicas: Vec<Daemon>,
    /// The leader, once started.
    pub leader: Option<Daemon>,
    starting: Vec<Child>,
}

impl Cluster {
    /// Start `shards` in-memory replicas, then a leader over them, for
    /// `streams` streams with the given tree shape. Run files go in
    /// `dir`.
    pub fn start(
        swatd: &Path,
        dir: &Path,
        streams: usize,
        shards: usize,
        window: usize,
        coeffs: usize,
    ) -> Result<Cluster, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cluster = Cluster {
            replicas: Vec::new(),
            leader: None,
            starting: Vec::new(),
        };
        let common = [
            "--shards".to_owned(),
            shards.to_string(),
            "--streams".to_owned(),
            streams.to_string(),
            "--window".to_owned(),
            window.to_string(),
            "--coeffs".to_owned(),
            coeffs.to_string(),
            "--listen".to_owned(),
            "127.0.0.1:0".to_owned(),
        ];
        // Start every replica before waiting for any, so they boot in
        // parallel.
        let mut ports = Vec::new();
        for shard in 0..shards {
            let port = dir.join(format!("replica-{shard}.addr"));
            let mut args = common.to_vec();
            args.extend(["--role", "replica", "--shard"].map(String::from));
            args.push(shard.to_string());
            cluster.launch(swatd, dir, &format!("replica-{shard}"), &args, &port)?;
            ports.push(port);
        }
        // Children stay in `starting` until every address is read, so
        // a failed start still kills them all on drop.
        let addrs = ports
            .iter()
            .zip(&mut cluster.starting)
            .map(|(port, child)| wait_for_port(port, child))
            .collect::<Result<Vec<_>, _>>()?;
        for (child, addr) in std::mem::take(&mut cluster.starting).into_iter().zip(addrs) {
            cluster.replicas.push(Daemon { child, addr });
        }
        let port = dir.join("leader.addr");
        let mut args = common.to_vec();
        args.extend(["--role", "leader"].map(String::from));
        for r in &cluster.replicas {
            args.push("--replica".to_owned());
            args.push(r.addr.to_string());
        }
        cluster.launch(swatd, dir, "leader", &args, &port)?;
        let addr = wait_for_port(&port, &mut cluster.starting[0])?;
        let child = cluster.starting.pop().expect("just launched");
        cluster.leader = Some(Daemon { child, addr });
        Ok(cluster)
    }

    fn launch(
        &mut self,
        swatd: &Path,
        dir: &Path,
        name: &str,
        args: &[String],
        port: &Path,
    ) -> Result<(), String> {
        let _ = fs::remove_file(port);
        let log = fs::File::create(dir.join(format!("{name}.log")))
            .map_err(|e| format!("creating {name}.log: {e}"))?;
        let mut cmd = Command::new(swatd);
        cmd.args(args)
            .arg("--port-file")
            .arg(port)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // SAFETY: prctl is async-signal-safe and touches only the child
        // being set up; it makes the child die with the benchmark.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting {} as {name}: {e}", swatd.display()))?;
        self.starting.push(child);
        Ok(())
    }

    /// The leader's address.
    pub fn leader_addr(&self) -> SocketAddr {
        self.leader.as_ref().expect("started").addr
    }

    /// Process ids of every node.
    pub fn pids(&self) -> Vec<u32> {
        self.replicas
            .iter()
            .chain(self.leader.as_ref())
            .map(Daemon::pid)
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let leader = self.leader.take().map(|d| d.child);
        let replicas = self.replicas.drain(..).map(|d| d.child);
        for mut child in leader
            .into_iter()
            .chain(replicas)
            .chain(self.starting.drain(..))
        {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Poll `port` until the child has written its whole address line.
fn wait_for_port(port: &Path, child: &mut Child) -> Result<SocketAddr, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = fs::read_to_string(port) {
            if let Some(line) = text.strip_suffix('\n') {
                return line
                    .parse()
                    .map_err(|_| format!("{}: bad address {line:?}", port.display()));
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "swatd exited ({status}) before writing {}; see the .log beside it",
                port.display()
            ));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "swatd (pid {}) wrote no address to {} within 20 s",
                child.id(),
                port.display()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    status_field(&format!("/proc/{pid}/status"), "VmHWM:")
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU time and context switches of a set of processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// User CPU, ms.
    pub user_ms: f64,
    /// System CPU, ms.
    pub sys_ms: f64,
    /// Voluntary plus involuntary context switches over every thread.
    pub ctx_switches: u64,
}

impl CpuSample {
    /// Sum over `pids` now.
    pub fn read(pids: &[u32]) -> CpuSample {
        // SAFETY: sysconf only reads a system constant.
        let tick_ms = 1000.0 / unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        let mut out = CpuSample::default();
        for &pid in pids {
            if let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) {
                // Fields after the parenthesized command name; utime and
                // stime are fields 14 and 15 of the whole line.
                let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                out.user_ms += ticks(11) * tick_ms;
                out.sys_ms += ticks(12) * tick_ms;
            }
            if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
                for task in tasks.flatten() {
                    let status = task.path().join("status");
                    let path = status.to_string_lossy();
                    out.ctx_switches += status_field(&path, "voluntary_ctxt_switches:")
                        .unwrap_or(0)
                        + status_field(&path, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        out
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}
