//! The in-process ladder: each rung times one layer's public entry point
//! with nothing above it — cache probe → registry op → `ServiceCore`
//! batch serve → codec round trip → loopback frame echo. (The last rung,
//! a `TcpClientTransport::call` against an idle cluster, needs the child
//! server and is timed in `main`.)

use crate::cluster::SHARDS;
use crate::stats::{median, Metrics};
use bytes::Bytes;
use geometa_cache::{HaCache, Key};
use geometa_core::protocol::{
    decode_fixed_response, decode_get_key, RegistryRequest, RegistryResponse,
};
use geometa_core::runtime::{
    ConnectionLayer, RuntimeConfig, ServiceCore, ServiceRuntime, Spawner, WalConfig,
};
use geometa_core::transport::InProcessTransport;
use geometa_core::wal::{FileWal, FsyncPolicy, WalSink};
use geometa_core::{FileLocation, RegistryEntry, RegistryInstance, StrategyKind};
use geometa_net::frame::{write_frame, Fill, FrameReader};
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's default group-commit window.
const GROUP_COMMIT: Duration = Duration::from_millis(2);
/// Timed repetitions per rung; the rung reports their median.
const REPS: usize = 5;
/// The runtime's default appends between WAL snapshots.
const SNAPSHOT_EVERY: usize = 4096;

/// A connection layer with no sockets: `ServiceCore` alone.
struct NoSockets;

impl ConnectionLayer for NoSockets {
    type Transport = InProcessTransport;

    fn start(&mut self, _core: &Arc<ServiceCore>, _spawner: &mut Spawner) {}

    fn transport(&self, _core: &Arc<ServiceCore>, _site: SiteId) -> Arc<InProcessTransport> {
        Arc::new(InProcessTransport::new(&[], 1))
    }

    fn unblock(&self) {}
}

/// Median over [`REPS`] repetitions of the mean time per op of `iters`
/// calls to `op`, in nanoseconds.
fn time_ns(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_op = Vec::with_capacity(REPS);
    let mut next = 0usize;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..iters {
            op(next);
            next = next.wrapping_add(1);
        }
        per_op.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per_op)
}

fn entries(n: usize, seed: u64) -> Vec<RegistryEntry> {
    let mut rng = SplitMix64::new(seed ^ 0x6c61_6464);
    (0..n)
        .map(|i| {
            RegistryEntry::new(
                format!("ladder/{seed:x}/{i:07}"),
                1 + rng.range_u64(1 << 20),
                FileLocation {
                    site: SiteId((i % 4) as u16),
                    node: 0,
                },
                1,
            )
        })
        .collect()
}

fn service(wal: WalConfig) -> ServiceRuntime<NoSockets> {
    ServiceRuntime::start(
        RuntimeConfig {
            topology: geometa_net::loopback_topology(crate::cluster::SITES as usize),
            kind: StrategyKind::DhtLocalReplica,
            shards: SHARDS,
            wal,
            ..RuntimeConfig::default()
        },
        NoSockets,
    )
}

/// Time every in-process rung at a keyspace of `keys` entries and
/// batches of `batch` requests, writing scratch WALs under `dir`.
pub fn run(
    keys: usize,
    batch: usize,
    seed: u64,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let all = entries(keys.max(1), seed);
    let names: Vec<Key> = all.iter().map(RegistryEntry::cache_key).collect();
    let mut rng = SplitMix64::new(seed);
    // A seeded probe order over the keyspace.
    let order: Vec<usize> = (0..1 << 16).map(|_| rng.range_usize(all.len())).collect();
    let pick = |i: usize| order[i % order.len()];

    // Cache tier.
    let cache = HaCache::new(SHARDS);
    let values: Vec<Bytes> = all.iter().map(RegistryEntry::to_bytes).collect();
    for (k, v) in names.iter().zip(&values) {
        cache
            .put_key(k, v.clone(), 1)
            .map_err(|e| format!("cache fill: {e}"))?;
    }
    m.put(
        "cache.get_ns",
        time_ns(100_000, |i| {
            black_box(cache.get_key(&names[pick(i)]).is_ok());
        }),
        "ns",
    );
    m.put(
        "cache.put_ns",
        time_ns(50_000, |i| {
            let k = pick(i);
            black_box(cache.put_key(&names[k], values[k].clone(), 2).is_ok());
        }),
        "ns",
    );
    drop(cache);

    // Registry.
    let registry = RegistryInstance::new(SiteId(0), SHARDS);
    registry
        .absorb_batch(&all)
        .map_err(|e| format!("registry fill: {e}"))?;
    m.put(
        "registry.get_ns",
        time_ns(100_000, |i| {
            black_box(registry.get_key(&names[pick(i)]).is_ok());
        }),
        "ns",
    );
    m.put(
        "registry.put_ns",
        time_ns(20_000, |i| {
            black_box(registry.put(&all[pick(i)], 2).is_ok());
        }),
        "ns",
    );
    drop(registry);

    // ServiceCore batch serve, in-memory WAL.
    let rt = service(WalConfig::Memory);
    let core = Arc::clone(rt.core());
    core.registry(SiteId(0))
        .expect("site 0 exists")
        .absorb_batch(&all)
        .map_err(|e| format!("service fill: {e}"))?;
    let mut reqs = Vec::with_capacity(batch);
    let mut out = Vec::with_capacity(batch);
    let mut scratch = core.new_batch_scratch();
    let get_ns = time_ns(50_000 / batch, |i| {
        for j in 0..batch {
            reqs.push(RegistryRequest::Get {
                key: names[pick(i * batch + j)].clone(),
            });
        }
        core.serve_batch_into(SiteId(0), &mut reqs, &mut out, &mut scratch);
        black_box(out.len());
        out.clear();
    }) / batch as f64;
    m.put("service.get_ns", get_ns, "ns");
    // One snapshot interval of puts per repetition, so each carries
    // its share of the snapshot the in-memory WAL takes every 4096
    // records.
    let put_ns = time_ns(SNAPSHOT_EVERY / batch, |i| {
        for j in 0..batch {
            reqs.push(RegistryRequest::Put {
                entry: all[pick(i * batch + j)].clone(),
            });
        }
        core.serve_batch_into(SiteId(0), &mut reqs, &mut out, &mut scratch);
        black_box(out.len());
        out.clear();
    }) / batch as f64;
    m.put("service.put_ns", put_ns, "ns");
    drop(core);
    rt.shutdown();

    // Codec: the wire path's encode and decode calls for a Get and a Put.
    let mut wire: Vec<u8> = Vec::with_capacity(256);
    m.put(
        "codec.get_roundtrip_ns",
        time_ns(50_000, |i| {
            let k = pick(i);
            wire.clear();
            RegistryRequest::Get {
                key: names[k].clone(),
            }
            .encode_into(&mut wire);
            black_box(decode_get_key(&wire));
            wire.clear();
            RegistryResponse::Found {
                entry: all[k].clone(),
            }
            .encode_into(&mut wire);
            black_box(RegistryResponse::decode(Bytes::copy_from_slice(&wire)).is_ok());
        }),
        "ns",
    );
    m.put(
        "codec.put_roundtrip_ns",
        time_ns(50_000, |i| {
            wire.clear();
            RegistryRequest::Put {
                entry: all[pick(i)].clone(),
            }
            .encode_into(&mut wire);
            black_box(RegistryRequest::decode(Bytes::copy_from_slice(&wire)).is_ok());
            wire.clear();
            RegistryResponse::Ack.encode_into(&mut wire);
            black_box(decode_fixed_response(&wire));
        }),
        "ns",
    );

    // ServiceCore batch serve of puts with a file WAL under group commit.
    let wal_dir = dir.join("ladder-service-wal");
    let rt = service(WalConfig::File {
        data_dir: wal_dir.clone(),
        fsync: FsyncPolicy::GroupCommit(GROUP_COMMIT),
    });
    let core = Arc::clone(rt.core());
    let put_filewal_ns = time_ns(60, |i| {
        for j in 0..batch {
            reqs.push(RegistryRequest::Put {
                entry: all[pick(i * batch + j)].clone(),
            });
        }
        core.serve_batch_into(SiteId(0), &mut reqs, &mut out, &mut scratch);
        black_box(out.len());
        out.clear();
    });
    m.put("service.put_filewal_us", put_filewal_ns / 1e3, "us");
    drop(core);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);

    // One WAL append under group commit.
    let wal_dir = dir.join("ladder-wal");
    let (wal, _) = FileWal::open(&wal_dir, FsyncPolicy::GroupCommit(GROUP_COMMIT))
        .map_err(|e| format!("open ladder wal: {e}"))?;
    let append_ns = time_ns(60, |i| {
        let req = RegistryRequest::Put {
            entry: all[pick(i)].clone(),
        };
        black_box(wal.append(&req, 2).is_ok());
    });
    wal.close();
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    m.put("wal.append_group_commit_us", append_ns / 1e3, "us");

    m.put("loopback.echo_rtt_us", echo_rtt_ns(&names)? / 1e3, "us");
    Ok(())
}

/// Round trip of one Get-sized frame through a bare loopback echo: the
/// socket and scheduling floor under every RPC, with no registry.
fn echo_rtt_ns(names: &[Key]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo addr: {e}"))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut reader = FrameReader::new();
        loop {
            while let Some(frame) = reader.next_frame()? {
                write_frame(&mut s, &frame)?;
                s.flush()?;
            }
            if reader.fill(&mut s)? == Fill::Eof {
                return Ok(());
            }
        }
    });
    let result = (|| -> std::io::Result<f64> {
        let mut s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        let mut reader = FrameReader::new();
        let mut wire = Vec::with_capacity(256);
        let ns = time_ns(2_000, |i| {
            wire.clear();
            RegistryRequest::Get {
                key: names[i % names.len()].clone(),
            }
            .encode_into(&mut wire);
            let sent = write_frame(&mut s, &wire).and_then(|_| s.flush());
            let mut got = false;
            while sent.is_ok() && !got {
                match reader.next_frame() {
                    Ok(Some(f)) => got = black_box(f.len()) == wire.len(),
                    Ok(None) => {
                        if !matches!(reader.fill(&mut s), Ok(Fill::Progress)) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            assert!(got, "loopback echo lost a frame");
        });
        Ok(ns)
    })();
    if result.is_err() {
        // Unblock an echo thread still waiting in accept.
        let _ = TcpStream::connect(addr);
    }
    let joined = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    let ns = result.map_err(|e| format!("echo client: {e}"))?;
    joined.map_err(|e| format!("echo server: {e}"))?;
    Ok(ns)
}
