//! `geometa-perfbench` — one benchmark run against real TCP clusters.
//!
//! ```text
//! geometa-perfbench --workload lookup|montage --seed N --seconds S
//!                   --trace 0|1 --server PATH/geometa-server --out-dir DIR
//!                   --cpu C --nproc P
//! ```
//!
//! The caller pins this process to CPU `C` before starting it (the server
//! child inherits the pin) and passes the host's CPU count `P`, which is
//! recorded with the result.
//!
//! Each round starts a fresh 4-site `geometa-server` child on ephemeral
//! ports with the in-memory WAL, sets it up, checks via `Status`
//! that the sites hold only the set-up's entries, measures, checks the
//! outputs, and stops the child. With `--trace 0` the last stdout line is
//! the end-to-end result; with `--trace 1` each round measures an
//! untraced and a traced phase and the result holds the per-layer
//! metrics. Spans and a copy of the result go to `--out-dir`.

mod cluster;
mod ladder;
mod load;
mod stats;
mod trace;

use cluster::{proc_sample, self_sample, statuses, Cluster, ProcSample};
use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::{ArchitectureController, Key, StrategyKind};
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use load::{Dag, Keyspace, LookupThread, PhaseOut};
use stats::{median, percentile, quantile, ratio, windowed_percentile, Metrics, QUIET_QUANTILE};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Clock, TracingTransport};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lookup,
    Montage,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Montage => "montage",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out_dir: PathBuf,
    /// The CPU this process and its server are pinned to.
    cpu: usize,
    /// CPUs the host offered before the pin.
    nproc: usize,
}

/// Rounds (fresh clusters) of a `lookup` run. Each round gives one
/// `setup_s` sample; the run reports their median.
const LOOKUP_ROUNDS: usize = 12;
/// Minimum rounds of a `montage` run (one DAG per round; a traced run
/// needs at least two traced and two untraced DAGs).
const MONTAGE_MIN_ROUNDS: usize = 4;
/// Lazy-visibility probes per traced round.
const LAG_PROBES: usize = 40;
/// Idle `TcpClientTransport::call`s timed per traced round.
const IDLE_CALLS: usize = 500;

/// Load threads. The run is pinned to one CPU, and a second load thread
/// there would only queue behind the first: on a 2-vCPU host, 2 threads
/// gave an interquartile throughput spread of 47% of the median over five
/// seeds where 1 thread gave 5%.
const LOAD_THREADS: usize = 1;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or(format!("missing {name}"))
    };
    let count = |name: &str| -> Result<usize, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} takes an unsigned integer"))
    };
    let workload = match get("--workload")?.as_str() {
        "lookup" => Workload::Lookup,
        "montage" => Workload::Montage,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        server: PathBuf::from(get("--server")?),
        out_dir: PathBuf::from(get("--out-dir")?),
        cpu: count("--cpu")?,
        nproc: count("--nproc")?,
    })
}

/// Everything a run accumulates over its rounds.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
    untraced: PhaseOut,
    traced: PhaseOut,
    server: ProcSample,
    /// This process: the load threads and the client transport.
    harness: ProcSample,
    /// Output checks, lag probes and idle calls.
    checks: u64,
    checks_failed: u64,
    wal_records: u64,
    site_entries: u64,
    keys: u64,
    lag_ns: Vec<u64>,
    idle_call_ns: Vec<u64>,
    fast_fails: u64,
    casts_shed: u64,
    rounds: usize,
}

impl Acc {
    fn measured_s(&self) -> f64 {
        self.untraced.measured_s() + self.traced.measured_s()
    }
}

/// Inputs shared by every round of a run.
struct Ctx<'a> {
    args: &'a Args,
    threads: usize,
    controller: Arc<ArchitectureController>,
    clock: Clock,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let nproc = args.nproc;
    let _ = load::RUN_CPU.set(args.cpu);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let run_dir = args.out_dir.join(format!(
        "run-{}-{}",
        args.workload.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create run dir: {e}"))?;
    let _cleanup = RemoveOnDrop(run_dir.clone());
    let ctx = Ctx {
        args,
        threads: LOAD_THREADS,
        controller: Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtLocalReplica,
            cluster::sites(),
        )),
        clock: Clock::new(),
    };
    let fs = cluster::filesystem_of(&run_dir);
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} load_threads={} nproc={nproc} \
         cpu={} data_dir_fs={fs}",
        args.workload.label(),
        args.seed,
        args.seconds,
        args.trace as u8,
        ctx.threads,
        args.cpu,
    );

    let mut acc = Acc::default();
    let keyspace_size = match args.workload {
        Workload::Lookup => {
            let keys = Keyspace::new("lk", load::LOOKUP_KEYS, args.seed, &ctx.controller);
            for round in 0..LOOKUP_ROUNDS {
                lookup_round(&ctx, &mut acc, &keys, round)?;
            }
            load::LOOKUP_KEYS
        }
        Workload::Montage => {
            let dag = Dag::new(args.seed, ctx.threads);
            while acc.rounds < MONTAGE_MIN_ROUNDS || acc.measured_s() < args.seconds {
                montage_round(&ctx, &mut acc, &dag)?;
            }
            dag.produced.len() + dag.externals.len()
        }
    };

    let mut e2e = Metrics::default();
    let u = &acc.untraced;
    let quiet = u.quiet_jobs();
    let (resolve, publish) = (load::resolve_ns(&quiet), load::publish_ns(&quiet));
    let ops_per_s = load::ops_per_s(&quiet);
    let job_secs: Vec<f64> = quiet.iter().map(|j| j.secs).collect();
    let resolve_p50_us = windowed_percentile(&resolve, 0.50, QUIET_QUANTILE) / 1e3;
    e2e.put("resolve_p50_us", resolve_p50_us, "us");
    e2e.put(
        "publish_p50_us",
        windowed_percentile(&publish, 0.50, QUIET_QUANTILE) / 1e3,
        "us",
    );
    e2e.put("makespan_s", quantile(&job_secs, QUIET_QUANTILE), "s");
    e2e.put("setup_s", median(&acc.setup_s), "s");
    e2e.put("server_peak_rss_mib", median(&acc.rss_mib), "MiB");

    for e in acc.untraced.rec.errors.iter().chain(&acc.traced.rec.errors) {
        eprintln!("perfbench: failed op: {e}");
    }
    let attempted = acc.untraced.rec.attempted + acc.traced.rec.attempted + acc.checks;
    let failed = acc.untraced.rec.failed + acc.traced.rec.failed + acc.checks_failed;
    eprintln!(
        "perfbench: {} rounds, {:.2} s measured, {ops_per_s:.0} ops/s, set-up {:.4}..{:.4} s; \
         {} of {} untraced jobs at or below the median steal; their samples: {} resolves ({} \
         windows), {} publishes ({} windows)",
        acc.rounds,
        acc.measured_s(),
        acc.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        acc.setup_s.iter().copied().fold(0.0, f64::max),
        quiet.len(),
        u.jobs.len(),
        resolve.len(),
        resolve.len() / stats::WINDOW,
        publish.len(),
        publish.len() / stats::WINDOW,
    );

    let metrics = if args.trace {
        let mut m = per_layer(&ctx, &acc, ops_per_s, attempted, failed);
        // Tail latencies of the untraced phases. Host interference moves
        // them too much between runs to gate on, so they are reported
        // here, without a bound.
        for (name, samples) in [
            ("client.resolve_p99_us", &resolve),
            ("client.publish_p99_us", &publish),
        ] {
            m.put(name, windowed_percentile(samples, 0.99, 0.5) / 1e3, "us");
        }
        let ladder_t = Instant::now();
        let mut ladder_m = Metrics::default();
        ladder::run(
            keyspace_size,
            ctx.threads,
            args.seed,
            &run_dir,
            &mut ladder_m,
        )?;
        eprintln!(
            "perfbench: ladder took {:.2} s",
            ladder_t.elapsed().as_secs_f64()
        );
        let idle_call_us = percentile(&sorted(&acc.idle_call_ns), 0.5) / 1e3;
        // Each rung's time as a share of this run's resolve p50.
        let rungs = [
            (
                "cache.get",
                ladder_m.get("cache.get_ns").unwrap_or(0.0) / 1e3,
            ),
            (
                "registry.get",
                ladder_m.get("registry.get_ns").unwrap_or(0.0) / 1e3,
            ),
            (
                "service.get",
                ladder_m.get("service.get_ns").unwrap_or(0.0) / 1e3,
            ),
            (
                "codec.get_roundtrip",
                ladder_m.get("codec.get_roundtrip_ns").unwrap_or(0.0) / 1e3,
            ),
            (
                "loopback.echo_rtt",
                ladder_m.get("loopback.echo_rtt_us").unwrap_or(0.0),
            ),
            ("tcp.call_idle", idle_call_us),
        ];
        m.put("tcp.call_idle_us", idle_call_us, "us");
        for (name, us) in rungs {
            m.put(&format!("share.{name}"), ratio(us, resolve_p50_us), "ratio");
        }
        for (name, v, unit) in ladder_m.into_entries() {
            m.put(&name, v, unit);
        }
        let spans_path = args.out_dir.join(format!(
            "spans-{}-s{}.tsv",
            args.workload.label(),
            args.seed
        ));
        trace::write_spans(&spans_path, &acc.traced.spans)
            .map_err(|e| format!("write spans: {e}"))?;
        m
    } else {
        e2e
    };

    let correct = failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"load_threads\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"data_dir_fs\": \"{fs}\", \"result\": {line}}}\n",
        args.workload.label(),
        args.seed,
        args.seconds,
        args.trace as u8,
        ctx.threads,
        args.cpu,
    );
    let record_path = args.out_dir.join(format!(
        "result-{}-s{}-t{}.json",
        args.workload.label(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(&record_path, record).map_err(|e| format!("write result record: {e}"))?;
    Ok((correct, line))
}

/// Removes the run's scratch directory (the ladder's WAL files)
/// however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Per-layer metrics from the accumulated rounds (the ladder is added by
/// the caller).
fn per_layer(
    ctx: &Ctx,
    acc: &Acc,
    untraced_ops_per_s: f64,
    attempted: u64,
    failed: u64,
) -> Metrics {
    let mut m = Metrics::default();
    let u = &acc.untraced;
    let t = &acc.traced;
    let ops = u.ops() as f64;
    m.put("load_threads", ctx.threads as f64, "count");
    m.put(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.put("server.cpu_us_per_op", ratio(acc.server.cpu_us, ops), "us");
    m.put(
        "server.ctx_switches_per_op",
        ratio(acc.server.ctx_switches, ops),
        "count",
    );
    m.put(
        "server.disk_write_bytes_per_publish",
        ratio(acc.server.write_bytes, u.rec.published as f64),
        "bytes",
    );
    m.put("driver.cpu_us_per_op", ratio(acc.harness.cpu_us, ops), "us");
    m.put(
        "driver.ctx_switches_per_op",
        ratio(acc.harness.ctx_switches, ops),
        "count",
    );

    let spans = trace::summarize(&t.spans);
    m.put(
        "client.resolve_self_us",
        percentile(&spans.resolve_self_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "client.rpcs_per_resolve",
        ratio(spans.resolve_calls as f64, spans.resolves as f64),
        "count",
    );
    m.put(
        "client.rpcs_per_publish",
        ratio(spans.publish_calls as f64, spans.publishes as f64),
        "count",
    );
    m.put(
        "client.casts_per_publish",
        ratio(spans.publish_casts as f64, spans.publishes as f64),
        "count",
    );
    let mut stats = u.stats;
    load::add_stats(&mut stats, &t.stats);
    m.put(
        "client.read_miss_ratio",
        ratio(stats.read_misses as f64, stats.reads() as f64),
        "ratio",
    );
    m.put(
        "rpc.call_p50_us",
        percentile(&spans.call_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "rpc.call_p99_us",
        percentile(&spans.call_ns, 0.99) / 1e3,
        "us",
    );
    m.put("rpc.breaker_fast_fails", acc.fast_fails as f64, "count");
    m.put("rpc.casts_shed", acc.casts_shed as f64, "count");
    let published = (u.rec.published + t.rec.published) as f64;
    m.put(
        "site.wal_records_per_publish",
        ratio(acc.wal_records as f64, published),
        "count",
    );
    m.put(
        "site.entries_per_key",
        ratio(acc.site_entries as f64, acc.keys as f64),
        "count",
    );
    let dags = (u.jobs.len() + t.jobs.len()) as f64;
    let waits = if ctx.args.workload == Workload::Montage {
        ratio((u.dependency_waits + t.dependency_waits) as f64, dags)
    } else {
        0.0
    };
    m.put("workflow.dependency_waits", waits, "count");
    m.put(
        "workflow.wait_share",
        ratio(u.wait_s, ctx.threads as f64 * u.measured_s()),
        "ratio",
    );
    m.put(
        "lazy.visibility_lag_us",
        percentile(&sorted(&acc.lag_ns), 0.5) / 1e3,
        "us",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(load::ops_per_s(&t.quiet_jobs()), untraced_ops_per_s),
        "ratio",
    );
    m
}

/// Stop the round's cluster and fold its end-of-round readings in.
fn finish_round(
    acc: &mut Acc,
    cluster: Cluster,
    transport: Arc<TcpClientTransport>,
) -> Result<(), String> {
    acc.fast_fails += transport.breaker_fast_fails();
    acc.casts_shed += transport.casts_shed();
    drop(transport);
    cluster.stop()?;
    acc.rounds += 1;
    Ok(())
}

/// Sum of the sites' WAL positions and entry counts.
fn site_totals<T: RegistryTransport>(transport: &T) -> Result<(u64, u64), String> {
    let st = statuses(transport)?;
    Ok((
        st.iter().map(|s| s.wal_seq).sum(),
        st.iter().map(|s| s.entries).sum(),
    ))
}

/// Run `phase` with the server and harness counters read around it.
fn counted<R>(acc: &mut Acc, pid: u32, phase: impl FnOnce() -> R) -> R {
    let (s0, d0) = (proc_sample(pid), self_sample());
    let r = phase();
    let (s1, d1) = (proc_sample(pid), self_sample());
    acc.server.add(&s1.delta(&s0));
    acc.harness.add(&d1.delta(&d0));
    r
}

fn lookup_round(ctx: &Ctx, acc: &mut Acc, keys: &Keyspace, round: usize) -> Result<(), String> {
    let args = ctx.args;
    let t0 = Instant::now();
    let cluster = Cluster::start(&args.server)?;
    let transport = cluster.transport();
    keys.load(&*transport)?;
    cluster::check_entries(&statuses(&*transport)?, &keys.per_site)
        .map_err(|e| format!("round {round} set-up: {e}"))?;
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    load::warmup(&transport, &ctx.controller, &keys.names, ctx.threads)?;
    // Peak memory of the loaded server, read before the measured phase:
    // the publishes a phase makes scale with its speed, and faster code
    // must not read as more memory.
    acc.rss_mib.push(cluster.peak_rss_mib());
    let (wal0, _) =
        site_totals(&*transport).map_err(|e| format!("round {round} after warm-up: {e}"))?;
    let mut threads: Vec<LookupThread> = (0..ctx.threads)
        .map(|t| LookupThread::new(t, args.seed, round, "lp"))
        .collect();
    let slice = args.seconds / LOOKUP_ROUNDS as f64 / if args.trace { 2.0 } else { 1.0 };
    let slice = Duration::from_secs_f64(slice);
    let out = counted(acc, cluster.pid(), || {
        load::run_lookup_phase(&transport, &ctx.controller, &mut threads, keys, slice, None)
    });
    let mut published = out.rec.published;
    acc.untraced.merge(out);
    if args.trace {
        let traced = Arc::new(TracingTransport::new(Arc::clone(&transport), ctx.clock));
        let out = load::run_lookup_phase(
            &traced,
            &ctx.controller,
            &mut threads,
            keys,
            slice,
            Some(&ctx.clock),
        );
        published += out.rec.published;
        acc.traced.merge(out);
    }

    let (wal1, entries) =
        site_totals(&*transport).map_err(|e| format!("round {round} after the phases: {e}"))?;
    acc.wal_records += wal1 - wal0;
    acc.site_entries += entries;
    acc.keys += keys.names.len() as u64 + published;
    if args.trace {
        probe_lag_and_idle_calls(ctx, acc, &transport, round)?;
    }
    finish_round(acc, cluster, transport)
}

fn montage_round(ctx: &Ctx, acc: &mut Acc, dag: &Dag) -> Result<(), String> {
    let args = ctx.args;
    let round = acc.rounds;
    let t0 = Instant::now();
    let cluster = Cluster::start(&args.server)?;
    let transport = cluster.transport();
    // Set-up: the DAG's external inputs, published from the first node's
    // site, must have reached their owners and nothing else may exist.
    let clients = load::site_clients(&transport, &ctx.controller, 0);
    let mut expected = vec![0u64; cluster::SITES as usize];
    for (name, size) in &dag.externals {
        clients[dag.external_site.0 as usize]
            .publish(name, *size)
            .map_err(|e| format!("publish external {name}: {e}"))?;
        expected[dag.external_site.0 as usize] += 1;
        let owner = load::owner_of(&ctx.controller, name);
        if owner != dag.external_site {
            expected[owner.0 as usize] += 1;
        }
    }
    // Poll without sleeping: a sleep would round the set-up time up to
    // the timer's granularity. One poll is four `Status` round trips.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let st = statuses(&*transport)?;
        match cluster::check_entries(&st, &expected) {
            Ok(()) => break,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {}
        }
    }
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    load::warmup(
        &transport,
        &ctx.controller,
        &dag.external_names(),
        ctx.threads,
    )?;
    let (wal0, _) = site_totals(&*transport)?;
    let traced = args.trace && round % 2 == 1;
    let out = if traced {
        let tt = Arc::new(TracingTransport::new(Arc::clone(&transport), ctx.clock));
        load::run_dag(dag, &tt, &ctx.controller, Some(&ctx.clock))?
    } else {
        counted(acc, cluster.pid(), || {
            load::run_dag(dag, &transport, &ctx.controller, None)
        })?
    };
    let published = out.rec.published;
    if traced {
        acc.traced.merge(out);
    } else {
        acc.untraced.merge(out);
    }
    acc.checks += dag.produced.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    let unresolved = load::count_failures(
        &transport,
        &ctx.controller,
        ctx.threads,
        &dag.produced,
        |clients, a| load::resolves_elsewhere(clients, a, deadline),
    );
    if unresolved > 0 {
        return Err(format!(
            "{unresolved} of {} produced files never resolved after the DAG",
            dag.produced.len()
        ));
    }
    // One DAG per cluster: the peak covers a fixed amount of work.
    acc.rss_mib.push(cluster.peak_rss_mib());
    let (wal1, entries) = site_totals(&*transport)?;
    acc.wal_records += wal1 - wal0;
    acc.site_entries += entries;
    acc.keys += dag.externals.len() as u64 + published;
    if traced {
        probe_lag_and_idle_calls(ctx, acc, &transport, round)?;
    }
    drop(clients);
    finish_round(acc, cluster, transport)
}

/// Lazy-propagation lag (publish ack at the origin → visible at the
/// owner) and the idle `TcpClientTransport::call` rung, on the round's
/// cluster after its measured phases.
fn probe_lag_and_idle_calls(
    ctx: &Ctx,
    acc: &mut Acc,
    transport: &Arc<TcpClientTransport>,
    round: usize,
) -> Result<(), String> {
    let clients = load::site_clients(transport, &ctx.controller, 0);
    let mut probes: Vec<(Key, SiteId)> = Vec::with_capacity(LAG_PROBES);
    for i in 0..LAG_PROBES {
        let name = format!("lag/{:x}/r{round}/{i}", ctx.args.seed);
        let owner = load::owner_of(&ctx.controller, &name);
        let origin = SiteId((owner.0 + 1 + (i % 3) as u16) % cluster::SITES);
        clients[origin.0 as usize]
            .publish(&name, 1)
            .map_err(|e| format!("lag probe publish: {e}"))?;
        let acked = Instant::now();
        let key = Key::new(&name);
        let deadline = acked + Duration::from_secs(2);
        loop {
            match transport.call(owner, RegistryRequest::Get { key: key.clone() }) {
                RegistryResponse::Found { .. } => {
                    acc.lag_ns.push(acked.elapsed().as_nanos() as u64);
                    break;
                }
                _ if Instant::now() < deadline => {}
                _ => {
                    acc.checks_failed += 1;
                    break;
                }
            }
        }
        probes.push((key, owner));
    }
    acc.checks += (LAG_PROBES + IDLE_CALLS) as u64;
    for i in 0..IDLE_CALLS {
        let (key, owner) = &probes[i % probes.len()];
        let t = Instant::now();
        let resp = transport.call(*owner, RegistryRequest::Get { key: key.clone() });
        acc.idle_call_ns.push(t.elapsed().as_nanos() as u64);
        if !matches!(resp, RegistryResponse::Found { .. }) {
            acc.checks_failed += 1;
        }
    }
    Ok(())
}
