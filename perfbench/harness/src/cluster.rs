//! One benchmark cluster: a child `geometa-server` process on ephemeral
//! loopback ports, its `Status` view, and the process counters read from
//! `/proc` (server) and `getrusage` (this process) at phase boundaries.

use geometa_core::protocol::{RegistryRequest, SiteStatus};
use geometa_core::transport::RegistryTransport;
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Sites in every benchmark cluster.
pub const SITES: u16 = 4;
/// Registry shards per site.
pub const SHARDS: usize = 16;
/// Client-side deadline for one call.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
/// The client reactor's poll tick (the TCP layer's default read tick).
const IO_TICK: Duration = Duration::from_millis(25);

pub fn sites() -> Vec<SiteId> {
    (0..SITES).map(SiteId).collect()
}

/// A running `geometa-server` child.
pub struct Cluster {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addrs: HashMap<SiteId, SocketAddr>,
}

impl Cluster {
    /// Spawn `server` as a 4-site DHT-local-replica cluster with the
    /// in-memory WAL.
    pub fn start(server: &Path) -> Result<Cluster, String> {
        let mut cmd = Command::new(server);
        cmd.args(["--sites", &SITES.to_string()])
            .args(["--base-port", "0"])
            .args(["--strategy", "dht-local-replica"])
            .args(["--shards", &SHARDS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addrs = HashMap::new();
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before READY".into());
                }
                Ok(_) => {}
            }
            if line.starts_with("READY") {
                break;
            }
            if let Some(rest) = line.trim().strip_prefix("LISTEN ") {
                let mut site = None;
                let mut addr = None;
                for kv in rest.split_whitespace() {
                    if let Some(v) = kv.strip_prefix("site=") {
                        site = v.parse::<u16>().ok();
                    } else if let Some(v) = kv.strip_prefix("addr=") {
                        addr = v.parse::<SocketAddr>().ok();
                    }
                }
                match (site, addr) {
                    (Some(s), Some(a)) => {
                        addrs.insert(SiteId(s), a);
                    }
                    _ => return Err(format!("unparsable server line: {line}")),
                }
            }
        }
        if addrs.len() != SITES as usize {
            return Err(format!("server announced {} sites", addrs.len()));
        }
        Ok(Cluster {
            child,
            stdout,
            addrs,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh pipelined client transport to this cluster.
    pub fn transport(&self) -> Arc<TcpClientTransport> {
        Arc::new(TcpClientTransport::new(
            self.addrs.clone(),
            CALL_TIMEOUT,
            IO_TICK,
        ))
    }

    /// Peak resident set of the server, MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status_field(&status, "VmHWM:") as f64 / 1024.0
    }

    /// Stop the server (close its stdin), wait for it, and check that it
    /// shut down cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        if !status.success() || !rest.contains("STOPPED") {
            return Err(format!("server did not stop cleanly: {status}"));
        }
        Ok(())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Reached only on error paths (stop() consumed the child
        // otherwise): never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Every site's `Status`, in site order.
pub fn statuses<T: RegistryTransport>(transport: &T) -> Result<Vec<SiteStatus>, String> {
    sites()
        .into_iter()
        .map(|s| {
            let t = std::time::Instant::now();
            transport
                .call(s, RegistryRequest::Status)
                .into_status()
                .map_err(|e| format!("status of site {}: {e} after {:?}", s.0, t.elapsed()))
        })
        .collect()
}

/// Check that each site holds exactly `expected[site]` entries.
pub fn check_entries(statuses: &[SiteStatus], expected: &[u64]) -> Result<(), String> {
    for (st, &want) in statuses.iter().zip(expected) {
        if st.entries != want {
            return Err(format!(
                "site {} holds {} entries before the measured phase, set-up made {want}",
                st.site.0, st.entries
            ));
        }
    }
    Ok(())
}

/// Process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    pub cpu_us: f64,
    pub ctx_switches: f64,
    pub write_bytes: f64,
}

impl ProcSample {
    pub fn delta(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            write_bytes: self.write_bytes - earlier.write_bytes,
        }
    }

    pub fn add(&mut self, d: &ProcSample) {
        self.cpu_us += d.cpu_us;
        self.ctx_switches += d.ctx_switches;
        self.write_bytes += d.write_bytes;
    }
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const TICK_US: f64 = 10_000.0;

/// Counters of another process from `/proc/<pid>/{stat,task/*/status,io}`:
/// CPU time of every thread, voluntary + involuntary context switches
/// summed over live threads, and bytes sent to the storage layer.
/// (`/proc/<pid>/io` also counts read- and write-class syscalls, but not
/// the `recv`/`send`/`poll` calls that carry the socket path, so no
/// syscall count is taken.)
pub fn proc_sample(pid: u32) -> ProcSample {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let cpu_us = (tick(11) + tick(12)) * TICK_US;

    let mut ctx = 0u64;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    let io = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
    ProcSample {
        cpu_us,
        ctx_switches: ctx as f64,
        write_bytes: status_field(&io, "write_bytes:") as f64,
    }
}

/// The first number after `key` at the start of a line of `text`.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Counters of this process from `getrusage(RUSAGE_SELF)`, which
/// unlike `/proc/self/task` also covers load threads that already exited.
pub fn self_sample() -> ProcSample {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`; RUSAGE_SELF (0) is a valid selector and the
    // call writes nothing beyond the struct.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return ProcSample::default();
    }
    let us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    // ru_nvcsw and ru_nivcsw are the last two longs.
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    ProcSample {
        cpu_us: us(ru.utime) + us(ru.stime),
        ctx_switches: (ru.rest[12] + ru.rest[13]) as f64,
        write_bytes: status_field(&io, "write_bytes:") as f64,
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path: PathBuf = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best = ("unknown".to_string(), 0usize);
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 {
            continue;
        }
        let mp = Path::new(f[1]);
        let len = f[1].len();
        if path.starts_with(mp) && len >= best.1 {
            best = (f[2].to_string(), len);
        }
    }
    best.0
}
