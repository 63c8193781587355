//! The two workloads' inputs and load threads.
//!
//! Every load thread holds one `StrategyClient` per site; all threads of
//! a round share one transport (one pipelined connection per site).
//! `lookup` runs closed-loop jobs: each thread issues a fixed
//! number of ops, the job ends when the slowest thread finishes, and jobs
//! repeat until the phase's time slice is used. `montage` runs one DAG
//! per call, each thread multiplexing its share of the node streams.

use crate::trace::{op_span, take_thread_spans, Clock, Span, SpanKind};
use geometa_core::metrics::OpStatsSnapshot;
use geometa_core::transport::RegistryTransport;
use geometa_core::{
    ArchitectureController, ClientConfig, FileLocation, Key, MetaError, RegistryEntry,
    StrategyClient,
};
use geometa_sim::rng::SplitMix64;
use geometa_sim::time::SimDuration;
use geometa_sim::topology::SiteId;
use geometa_workflow::apps::montage::montage_with_total_ops;
use geometa_workflow::apps::ops::{workflow_streams, MetaOp};
use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Loaded keys for `lookup`.
pub const LOOKUP_KEYS: usize = 100_000;
/// Entries per `Absorb` call of the bulk load.
const LOAD_CHUNK: usize = 1_000;
/// Share of `lookup` ops that resolve (the rest publish fresh keys).
const LOOKUP_RESOLVE_SHARE: f64 = 0.95;
/// Ops per load thread in one closed-loop `lookup` job.
const LOOKUP_JOB_OPS: usize = 2_000;
/// Target metadata ops of the Montage DAG (`montage_with_total_ops`).
const MONTAGE_OPS: usize = 16_000;
/// Montage tiles.
const MONTAGE_TILES: usize = 32;
/// Nodes per site for the Montage placement.
const MONTAGE_NODES_PER_SITE: u32 = 8;
/// Sleep of a load thread whose nodes are all parked (the workflow
/// engine's default poll interval).
const PARK_SLEEP: Duration = Duration::from_micros(200);
/// A DAG that makes no progress for this long has failed.
const DAG_STALL_LIMIT: Duration = Duration::from_secs(20);

/// The CPU the run is pinned to, whose line of `/proc/stat` gives the
/// steal counters; set once by `main` before any phase runs.
pub static RUN_CPU: OnceLock<usize> = OnceLock::new();

/// CPU time counters of the run's CPU (its `cpuN` line of `/proc/stat`).
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn read() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let label = format!("cpu{}", RUN_CPU.get().copied().unwrap_or(0));
        let fields: Vec<u64> = stat
            .lines()
            .find(|l| l.split_whitespace().next() == Some(label.as_str()))
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of CPU time stolen since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Completed-op samples and error counts.
#[derive(Default)]
pub struct OpRecord {
    pub resolve_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Acked publishes.
    pub published: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl OpRecord {
    /// Count a failed op, keeping the first few descriptions.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what());
        }
    }

    pub fn absorb(&mut self, mut other: OpRecord) {
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.drain(..).take(room));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.published += other.published;
    }
}

/// Sum of client op counters.
pub fn add_stats(a: &mut OpStatsSnapshot, b: &OpStatsSnapshot) {
    a.local_read_hits += b.local_read_hits;
    a.remote_reads += b.remote_reads;
    a.read_misses += b.read_misses;
    a.local_writes += b.local_writes;
    a.remote_writes += b.remote_writes;
    a.async_pushes += b.async_pushes;
    a.retries += b.retries;
    a.failovers += b.failovers;
    a.epoch_refreshes += b.epoch_refreshes;
}

/// One client per site for load thread `node`.
pub fn site_clients<T: RegistryTransport>(
    transport: &Arc<T>,
    controller: &Arc<ArchitectureController>,
    node: u32,
) -> Vec<StrategyClient<T>> {
    crate::cluster::sites()
        .into_iter()
        .map(|site| {
            StrategyClient::new(
                Arc::clone(transport),
                Arc::clone(controller),
                ClientConfig { site, node },
            )
        })
        .collect()
}

/// The hash owner of `name` under the controller's strategy.
pub fn owner_of(controller: &ArchitectureController, name: &str) -> SiteId {
    let plan = controller
        .strategy()
        .read_plan_key(&Key::new(name), SiteId(0));
    *plan
        .probes
        .last()
        .expect("a read plan probes at least one site")
}

/// Run `op` timed, inside an op span when tracing.
fn timed<R>(clock: Option<&Clock>, kind: SpanKind, op: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = match clock {
        Some(c) => op_span(c, kind, op),
        None => op(),
    };
    (r, t.elapsed().as_nanos() as u64)
}

/// Seeded keys with sizes, grouped by owner for the bulk load.
pub struct Keyspace {
    pub names: Vec<String>,
    pub sizes: Vec<u64>,
    /// Per site: chunks of entries the site owns.
    chunks: Vec<Vec<Vec<RegistryEntry>>>,
    /// Entries owned by each site.
    pub per_site: Vec<u64>,
}

impl Keyspace {
    pub fn new(prefix: &str, n: usize, seed: u64, controller: &ArchitectureController) -> Keyspace {
        let mut rng = SplitMix64::new(seed ^ 0x6b65_7973);
        let sites = crate::cluster::sites();
        let mut by_owner: Vec<Vec<RegistryEntry>> = vec![Vec::new(); sites.len()];
        let mut names = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("{prefix}/{seed:x}/{i:07}");
            let size = 1 + rng.range_u64(1 << 20);
            let owner = owner_of(controller, &name);
            by_owner[owner.0 as usize].push(RegistryEntry::new(
                name.as_str(),
                size,
                FileLocation {
                    site: owner,
                    node: 0,
                },
                1,
            ));
            names.push(name);
            sizes.push(size);
        }
        let per_site = by_owner.iter().map(|v| v.len() as u64).collect();
        let chunks = by_owner
            .into_iter()
            .map(|v| {
                v.chunks(LOAD_CHUNK)
                    .map(<[RegistryEntry]>::to_vec)
                    .collect()
            })
            .collect();
        Keyspace {
            names,
            sizes,
            chunks,
            per_site,
        }
    }

    /// Bulk-load every key at its owner with chunked `Absorb` calls.
    pub fn load<T: RegistryTransport>(&self, transport: &T) -> Result<(), String> {
        for (site, chunks) in self.chunks.iter().enumerate() {
            for chunk in chunks {
                transport
                    .call(
                        SiteId(site as u16),
                        geometa_core::protocol::RegistryRequest::Absorb {
                            entries: chunk.clone(),
                        },
                    )
                    .into_ack()
                    .map_err(|e| format!("bulk load at site {site}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// A file a DAG publishes: its name, size and producing site.
pub struct Acked {
    pub name: String,
    pub size: u64,
    pub origin: SiteId,
}

/// Per-thread state of the `lookup` load, kept across the phases of a
/// round.
pub struct LookupThread {
    index: usize,
    rng: SplitMix64,
    /// Ops issued (spreads origins round-robin over the sites).
    ops: u64,
    /// Fresh keys published.
    counter: u64,
    key_prefix: String,
}

impl LookupThread {
    pub fn new(index: usize, seed: u64, round: usize, prefix: &str) -> LookupThread {
        LookupThread {
            index,
            rng: SplitMix64::new(seed).split(((round as u64) << 16) | index as u64),
            ops: 0,
            counter: 0,
            key_prefix: format!("{prefix}/{seed:x}/r{round}/t{index}"),
        }
    }

    fn fresh(&mut self) -> (String, u64) {
        self.counter += 1;
        let name = format!("{}/{}", self.key_prefix, self.counter);
        (name, 1 + self.rng.range_u64(1 << 20))
    }

    /// Issue one op.
    fn step<T: RegistryTransport>(
        &mut self,
        clients: &[StrategyClient<T>],
        keys: &Keyspace,
        clock: Option<&Clock>,
        rec: &mut OpRecord,
    ) {
        rec.attempted += 1;
        self.ops += 1;
        let origin = (self.ops as usize + self.index) % clients.len();
        let client = &clients[origin];
        if self.rng.chance(LOOKUP_RESOLVE_SHARE) {
            let i = self.rng.range_usize(keys.names.len());
            let (name, size) = (keys.names[i].as_str(), keys.sizes[i]);
            let (r, ns) = timed(clock, SpanKind::Resolve, || client.resolve(name));
            match r {
                Ok(e) if e.size == size => rec.resolve_ns.push(ns),
                other => {
                    rec.fail(|| format!("resolve {name} at site {}: {other:?}", client.site().0))
                }
            }
        } else {
            let (name, size) = self.fresh();
            let (r, ns) = timed(clock, SpanKind::Publish, || client.publish(&name, size));
            match r {
                Ok(()) => {
                    rec.publish_ns.push(ns);
                    rec.published += 1;
                }
                Err(e) => rec.fail(|| format!("publish {name} at site {}: {e}", client.site().0)),
            }
        }
    }
}

/// One job: a DAG, or one closed-loop batch of every thread's ops.
#[derive(Default)]
pub struct Job {
    /// Wall time from the job's start to its slowest thread's end.
    pub secs: f64,
    /// Share of the host's CPU time that was stolen by the hypervisor
    /// while the job ran.
    pub steal: f64,
    pub resolve_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
}

impl Job {
    pub fn ops(&self) -> usize {
        self.resolve_ns.len() + self.publish_ns.len()
    }
}

/// Median over `jobs` of each job's ops per second.
pub fn ops_per_s(jobs: &[&Job]) -> f64 {
    let per_job: Vec<f64> = jobs
        .iter()
        .map(|j| j.ops() as f64 / j.secs.max(1e-9))
        .collect();
    crate::stats::median(&per_job)
}

/// Resolve latencies of `jobs`, in the order they were taken (by thread
/// within a job).
pub fn resolve_ns(jobs: &[&Job]) -> Vec<u64> {
    jobs.iter()
        .flat_map(|j| j.resolve_ns.iter().copied())
        .collect()
}

/// Publish latencies of `jobs`, ordered as [`resolve_ns`].
pub fn publish_ns(jobs: &[&Job]) -> Vec<u64> {
    jobs.iter()
        .flat_map(|j| j.publish_ns.iter().copied())
        .collect()
}

/// What one measured phase produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Op counts (the latency samples live in `jobs`).
    pub rec: OpRecord,
    pub jobs: Vec<Job>,
    pub spans: Vec<Span>,
    pub stats: OpStatsSnapshot,
    /// Resolves that missed and parked their node (montage).
    pub dependency_waits: u64,
    /// Thread time spent asleep with every node parked, seconds.
    pub wait_s: f64,
}

impl PhaseOut {
    pub fn measured_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }

    pub fn ops(&self) -> usize {
        self.jobs.iter().map(Job::ops).sum()
    }

    /// The jobs during which the hypervisor stole no more of the host's
    /// CPU time than it did in the median job. Jobs that ran while the
    /// host was busy with other guests are dropped: on a shared host they
    /// move latency and throughput far more than the program does.
    pub fn quiet_jobs(&self) -> Vec<&Job> {
        let steal: Vec<f64> = self.jobs.iter().map(|j| j.steal).collect();
        let limit = crate::stats::median(&steal);
        self.jobs.iter().filter(|j| j.steal <= limit).collect()
    }

    pub fn merge(&mut self, other: PhaseOut) {
        self.rec.absorb(other.rec);
        self.jobs.extend(other.jobs);
        self.spans.extend(other.spans);
        add_stats(&mut self.stats, &other.stats);
        self.dependency_waits += other.dependency_waits;
        self.wait_s += other.wait_s;
    }
}

/// Run closed-loop jobs of `LOOKUP_JOB_OPS` ops per thread until `slice` has
/// been measured.
pub fn run_lookup_phase<T: RegistryTransport + 'static>(
    transport: &Arc<T>,
    controller: &Arc<ArchitectureController>,
    threads: &mut [LookupThread],
    keys: &Keyspace,
    slice: Duration,
    clock: Option<&Clock>,
) -> PhaseOut {
    let n = threads.len();
    let barrier = Barrier::new(n);
    let stop = AtomicBool::new(false);
    let mark = Mutex::new((Instant::now(), CpuTicks::read()));
    let phase_start = Instant::now();
    let jobs = Mutex::new(Vec::new());
    type ThreadOut = (OpRecord, Vec<(usize, usize)>, Vec<Span>, OpStatsSnapshot);
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = threads
            .iter_mut()
            .map(|state| {
                let (barrier, stop, mark, jobs) = (&barrier, &stop, &mark, &jobs);
                scope.spawn(move || {
                    let clients = site_clients(transport, controller, state.index as u32);
                    let mut rec = OpRecord::default();
                    // Sample counts at each job's end.
                    let mut ends = Vec::new();
                    if barrier.wait().is_leader() {
                        *mark.lock().expect("job clock lock") = (Instant::now(), CpuTicks::read());
                    }
                    loop {
                        for _ in 0..LOOKUP_JOB_OPS {
                            state.step(&clients, keys, clock, &mut rec);
                        }
                        ends.push((rec.resolve_ns.len(), rec.publish_ns.len()));
                        if barrier.wait().is_leader() {
                            let now = (Instant::now(), CpuTicks::read());
                            let mut m = mark.lock().expect("job clock lock");
                            jobs.lock()
                                .expect("job list lock")
                                .push(((now.0 - m.0).as_secs_f64(), now.1.steal_since(&m.1)));
                            *m = now;
                            if phase_start.elapsed() >= slice {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    let mut stats = OpStatsSnapshot::default();
                    for c in &clients {
                        add_stats(&mut stats, &c.stats().snapshot());
                    }
                    (rec, ends, take_thread_spans(), stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = PhaseOut {
        jobs: jobs
            .into_inner()
            .expect("job list lock")
            .into_iter()
            .map(|(secs, steal)| Job {
                secs,
                steal,
                ..Job::default()
            })
            .collect(),
        ..PhaseOut::default()
    };
    for (mut rec, ends, spans, stats) in outs {
        let mut from = (0, 0);
        for (job, &to) in out.jobs.iter_mut().zip(&ends) {
            job.resolve_ns
                .extend_from_slice(&rec.resolve_ns[from.0..to.0]);
            job.publish_ns
                .extend_from_slice(&rec.publish_ns[from.1..to.1]);
            from = to;
        }
        rec.resolve_ns.clear();
        rec.publish_ns.clear();
        out.rec.absorb(rec);
        out.spans.extend(spans);
        add_stats(&mut out.stats, &stats);
    }
    out
}

/// Untimed resolves of loaded keys from every thread and site, so the
/// measured phase starts on dialed connections and warm buffers.
pub fn warmup<T: RegistryTransport>(
    transport: &Arc<T>,
    controller: &Arc<ArchitectureController>,
    names: &[String],
    threads: usize,
) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || -> Result<(), String> {
                    let clients = site_clients(transport, controller, t as u32);
                    for i in 0..256 {
                        let name = &names[(i * 7919 + t) % names.len()];
                        clients[i % clients.len()]
                            .resolve(name)
                            .map_err(|e| format!("warmup resolve {name}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warmup thread panicked"))
    })
}

// ---------------------------------------------------------------------
// montage
// ---------------------------------------------------------------------

enum DagOp {
    Publish { name: String, size: u64 },
    Resolve { name: String, size: u64 },
}

struct DagNode {
    site: SiteId,
    ops: Vec<DagOp>,
}

/// The Montage DAG flattened into per-node op streams, placed
/// LocalityAware over 4 sites × 8 nodes, with seeded key names and a
/// seeded assignment of nodes to load threads.
pub struct Dag {
    nodes: Vec<DagNode>,
    /// Node indices per load thread.
    assignment: Vec<Vec<usize>>,
    /// External inputs: (name, size), published before the DAG starts.
    pub externals: Vec<(String, u64)>,
    pub external_site: SiteId,
    /// Every file the DAG produces: (name, size, producing site).
    pub produced: Vec<Acked>,
}

impl Dag {
    pub fn new(seed: u64, threads: usize) -> Dag {
        let sites = crate::cluster::sites();
        let w = montage_with_total_ops(MONTAGE_OPS, MONTAGE_TILES, SimDuration::ZERO);
        let placement = schedule(
            &w,
            &node_grid(&sites, MONTAGE_NODES_PER_SITE),
            SchedulerPolicy::LocalityAware,
        );
        let stream = workflow_streams(&w, &placement);
        let key = |name: &str| format!("m/{seed:x}/{name}");
        let mut sizes: HashMap<&str, u64> = stream
            .externals
            .iter()
            .map(|(n, s)| (n.as_str(), *s))
            .collect();
        for node in &stream.nodes {
            for op in &node.ops {
                if let MetaOp::Publish { name, size } = op {
                    sizes.insert(name.as_str(), *size);
                }
            }
        }
        let mut produced = Vec::new();
        let nodes: Vec<DagNode> = stream
            .nodes
            .iter()
            .map(|node| DagNode {
                site: node.site,
                ops: node
                    .ops
                    .iter()
                    .map(|op| match op {
                        MetaOp::Publish { name, size } => {
                            produced.push(Acked {
                                name: key(name),
                                size: *size,
                                origin: node.site,
                            });
                            DagOp::Publish {
                                name: key(name),
                                size: *size,
                            }
                        }
                        MetaOp::Resolve { name } => DagOp::Resolve {
                            name: key(name),
                            size: sizes[name.as_str()],
                        },
                    })
                    .collect(),
            })
            .collect();
        // Seeded shuffle of nodes over threads.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        let mut rng = SplitMix64::new(seed ^ 0x6d6f_6e74);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(i + 1));
        }
        let mut assignment = vec![Vec::new(); threads];
        for (i, node) in order.into_iter().enumerate() {
            assignment[i % threads].push(node);
        }
        Dag {
            external_site: stream.nodes.first().map_or(SiteId(0), |n| n.site),
            externals: stream.externals.iter().map(|(n, s)| (key(n), *s)).collect(),
            nodes,
            assignment,
            produced,
        }
    }

    /// Names of the externals (resolvable once published).
    pub fn external_names(&self) -> Vec<String> {
        self.externals.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Execute the DAG once. A resolve that misses parks its node; a thread
/// sleeps only when all of its nodes are parked.
pub fn run_dag<T: RegistryTransport + 'static>(
    dag: &Dag,
    transport: &Arc<T>,
    controller: &Arc<ArchitectureController>,
    clock: Option<&Clock>,
) -> Result<PhaseOut, String> {
    let n = dag.assignment.len();
    let barrier = Barrier::new(n);
    type ThreadOut = (OpRecord, Vec<Span>, OpStatsSnapshot, u64, f64, Instant);
    let start = Mutex::new(None::<Instant>);
    let ticks = CpuTicks::read();
    let outs: Vec<Result<ThreadOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = dag
            .assignment
            .iter()
            .enumerate()
            .map(|(t, mine)| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || -> Result<ThreadOut, String> {
                    let clients = site_clients(transport, controller, t as u32);
                    let mut rec = OpRecord::default();
                    let mut cursor = vec![0usize; mine.len()];
                    let mut waits = 0u64;
                    let mut wait_s = 0.0;
                    if barrier.wait().is_leader() {
                        *start.lock().expect("dag clock lock") = Some(Instant::now());
                    }
                    let mut last_progress = Instant::now();
                    loop {
                        let mut progressed = false;
                        let mut done = true;
                        for (k, &node) in mine.iter().enumerate() {
                            let node = &dag.nodes[node];
                            let client = &clients[node.site.0 as usize];
                            while let Some(op) = node.ops.get(cursor[k]) {
                                match op {
                                    DagOp::Publish { name, size } => {
                                        rec.attempted += 1;
                                        let (r, ns) = timed(clock, SpanKind::Publish, || {
                                            client.publish(name, *size)
                                        });
                                        match r {
                                            Ok(()) => {
                                                rec.publish_ns.push(ns);
                                                rec.published += 1;
                                            }
                                            Err(e) => rec.fail(|| format!("publish {name}: {e}")),
                                        }
                                    }
                                    DagOp::Resolve { name, size } => {
                                        let (r, ns) = timed(clock, SpanKind::Resolve, || {
                                            client.resolve(name)
                                        });
                                        match r {
                                            Err(MetaError::NotFound) => {
                                                waits += 1;
                                                break;
                                            }
                                            Ok(e) if e.size == *size => {
                                                rec.attempted += 1;
                                                rec.resolve_ns.push(ns);
                                            }
                                            other => {
                                                rec.attempted += 1;
                                                rec.fail(|| format!("resolve {name}: {other:?}"));
                                            }
                                        }
                                    }
                                }
                                cursor[k] += 1;
                                progressed = true;
                            }
                            if cursor[k] < node.ops.len() {
                                done = false;
                            }
                        }
                        if done {
                            break;
                        }
                        if progressed {
                            last_progress = Instant::now();
                        } else {
                            if last_progress.elapsed() > DAG_STALL_LIMIT {
                                return Err(
                                    "montage DAG stalled: inputs never became visible".into()
                                );
                            }
                            let t0 = Instant::now();
                            std::thread::sleep(PARK_SLEEP);
                            wait_s += t0.elapsed().as_secs_f64();
                        }
                    }
                    let end = Instant::now();
                    let mut stats = OpStatsSnapshot::default();
                    for c in &clients {
                        add_stats(&mut stats, &c.stats().snapshot());
                    }
                    Ok((rec, take_thread_spans(), stats, waits, wait_s, end))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dag thread panicked"))
            .collect()
    });
    let start = start
        .into_inner()
        .expect("dag clock lock")
        .expect("the barrier elects a leader");
    let mut out = PhaseOut::default();
    let mut job = Job::default();
    let mut end = start;
    for r in outs {
        let (mut rec, spans, stats, waits, wait_s, t_end) = r?;
        job.resolve_ns.append(&mut rec.resolve_ns);
        job.publish_ns.append(&mut rec.publish_ns);
        out.rec.absorb(rec);
        out.spans.extend(spans);
        add_stats(&mut out.stats, &stats);
        out.dependency_waits += waits;
        out.wait_s += wait_s;
        end = end.max(t_end);
    }
    job.secs = (end - start).as_secs_f64();
    job.steal = CpuTicks::read().steal_since(&ticks);
    out.jobs.push(job);
    Ok(out)
}

/// Check `items` on `threads` threads, each with its own per-site
/// clients; returns how many failed `ok`.
pub fn count_failures<T: RegistryTransport>(
    transport: &Arc<T>,
    controller: &Arc<ArchitectureController>,
    threads: usize,
    items: &[Acked],
    ok: impl Fn(&[StrategyClient<T>], &Acked) -> bool + Sync,
) -> u64 {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(t, part)| {
                let ok = &ok;
                scope.spawn(move || {
                    let clients = site_clients(transport, controller, t as u32);
                    part.iter().filter(|a| !ok(&clients, a)).count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    })
}

/// A produced file resolves, with its size, from a site other than its
/// producer once lazy propagation has landed (retrying until `deadline`).
pub fn resolves_elsewhere<T: RegistryTransport>(
    clients: &[StrategyClient<T>],
    a: &Acked,
    deadline: Instant,
) -> bool {
    let reader = &clients[(a.origin.0 as usize + 1) % clients.len()];
    loop {
        match reader.resolve(&a.name) {
            Ok(e) => return e.size == a.size,
            Err(MetaError::NotFound) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(_) => return false,
        }
    }
}
