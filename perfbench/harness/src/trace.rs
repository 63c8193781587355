//! Span recording from the benchmark's side of the API: an op span around
//! each `StrategyClient` call and an RPC span around each `call` and
//! `cast` the client makes, via a wrapping [`RegistryTransport`].
//!
//! Spans live in per-thread buffers (no locking on the op path), are
//! collected when a phase ends, and are written out when the run ends.

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_sim::topology::SiteId;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// `StrategyClient::resolve`.
    Resolve,
    /// `StrategyClient::publish`.
    Publish,
    /// A blocking `RegistryTransport::call`.
    Call,
    /// A fire-and-forget `RegistryTransport::cast`.
    Cast,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Resolve => "resolve",
            SpanKind::Publish => "publish",
            SpanKind::Call => "call",
            SpanKind::Cast => "cast",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    /// Op spans: their own id. RPC spans: 0.
    pub id: u64,
    /// RPC spans: the enclosing op span's id (0 when outside an op).
    pub parent: u64,
    /// RPC spans: the request type.
    pub req: &'static str,
    /// RPC spans: the target site.
    pub target: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

fn req_label(req: &RegistryRequest) -> &'static str {
    match req {
        RegistryRequest::Get { .. } => "get",
        RegistryRequest::Put { .. } => "put",
        RegistryRequest::Absorb { .. } => "absorb",
        RegistryRequest::Remove { .. } => "remove",
        RegistryRequest::DeltaPull { .. } => "delta_pull",
        RegistryRequest::Status => "status",
        RegistryRequest::Reconfigure { .. } => "reconfigure",
    }
}

/// The run's trace clock.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Source of op span ids, unique within the run (0 means "no op").
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// Run `op` inside a new op span of `kind`.
pub fn op_span<R>(clock: &Clock, kind: SpanKind, op: impl FnOnce() -> R) -> R {
    let id = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    CURRENT_OP.with(|c| c.set(id));
    let start_ns = clock.now_ns();
    let r = op();
    let end_ns = clock.now_ns();
    CURRENT_OP.with(|c| c.set(0));
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            kind,
            id,
            parent: 0,
            req: "",
            target: 0,
            start_ns,
            end_ns,
        })
    });
    r
}

/// Move the calling thread's recorded spans out.
pub fn take_thread_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// A transport that records an RPC span for every `call` and `cast`.
pub struct TracingTransport<T: RegistryTransport> {
    inner: Arc<T>,
    clock: Clock,
}

impl<T: RegistryTransport> TracingTransport<T> {
    pub fn new(inner: Arc<T>, clock: Clock) -> TracingTransport<T> {
        TracingTransport { inner, clock }
    }

    fn record(&self, kind: SpanKind, req: &'static str, target: SiteId, start_ns: u64) {
        let end_ns = self.clock.now_ns();
        let parent = CURRENT_OP.with(|c| c.get());
        SPANS.with(|s| {
            s.borrow_mut().push(Span {
                kind,
                id: 0,
                parent,
                req,
                target: target.0,
                start_ns,
                end_ns,
            })
        });
    }
}

impl<T: RegistryTransport> RegistryTransport for TracingTransport<T> {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        let label = req_label(&req);
        let start = self.clock.now_ns();
        let resp = self.inner.call(target, req);
        self.record(SpanKind::Call, label, target, start);
        resp
    }

    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let label = req_label(&req);
        let start = self.clock.now_ns();
        self.inner.cast(target, req);
        self.record(SpanKind::Cast, label, target, start);
    }

    fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
        self.inner.refresh_membership()
    }
}

/// What the spans of a run say about the client and RPC layers.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Per resolve op: its duration minus its RPC children, ns.
    pub resolve_self_ns: Vec<u64>,
    pub resolves: u64,
    pub publishes: u64,
    pub resolve_calls: u64,
    pub publish_calls: u64,
    pub publish_casts: u64,
    /// Duration of every `call` span, ns.
    pub call_ns: Vec<u64>,
}

/// Attribute RPC spans to their op spans.
pub fn summarize(spans: &[Span]) -> SpanSummary {
    use std::collections::HashMap;
    let mut sum = SpanSummary::default();
    // Per op id: (kind, duration, child call time, child calls, child casts).
    let mut ops: HashMap<u64, (SpanKind, u64, u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.id != 0) {
        ops.insert(s.id, (s.kind, s.dur_ns(), 0, 0, 0));
    }
    for s in spans.iter().filter(|s| s.id == 0) {
        if s.kind == SpanKind::Call {
            sum.call_ns.push(s.dur_ns());
        }
        if let Some(op) = ops.get_mut(&s.parent) {
            match s.kind {
                SpanKind::Call => {
                    op.2 += s.dur_ns();
                    op.3 += 1;
                }
                SpanKind::Cast => {
                    op.2 += s.dur_ns();
                    op.4 += 1;
                }
                _ => {}
            }
        }
    }
    for (kind, dur, child, calls, casts) in ops.into_values() {
        match kind {
            SpanKind::Resolve => {
                sum.resolves += 1;
                sum.resolve_calls += calls;
                sum.resolve_self_ns.push(dur.saturating_sub(child));
            }
            SpanKind::Publish => {
                sum.publishes += 1;
                sum.publish_calls += calls;
                sum.publish_casts += casts;
            }
            _ => {}
        }
    }
    sum.resolve_self_ns.sort_unstable();
    sum.call_ns.sort_unstable();
    sum
}

/// Write spans as tab-separated lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "kind\tid\tparent\treq\ttarget\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.label(),
            s.id,
            s.parent,
            s.req,
            s.target,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}
