//! The TCP client transport: one pipelined connection per target site,
//! driven entirely by the callers. There is no client thread — every
//! call and cast writes its frame on the caller's own thread, and the
//! callers waiting for responses take turns reading the socket.
//!
//! # Links: leader/followers over one socket
//!
//! Each target site has a *link*: one mutex guarding the socket, the
//! out-buffer, the incremental [`FrameReader`] and the queue of calls
//! awaiting a response. A `call` encodes its request straight into the
//! out-buffer behind a [`crate::server::MODE_CALL_SEQ`] (or
//! [`MODE_CALL_EPOCH`]) header carrying a per-connection sequence id,
//! then flushes it with a nonblocking `send`. Whoever finds no flush in
//! progress writes *everything* queued, outside the lock, and goes round
//! again while concurrent callers keep appending — so requests that
//! arrive together still leave in one kernel write, and the server's
//! batch decode turns them into shard-grouped multi-gets.
//!
//! Then the caller waits for its answer. If no other caller is reading
//! the link, it becomes the *reader* (the leader/followers pattern of
//! Schmidt et al.): it `poll(2)`s that one socket in slices of the
//! transport's `io_tick`, correlates every complete response to its
//! caller by the echoed sequence id, and, once its own answer is in,
//! hands the reader role to the oldest still-pending caller. Every other
//! caller sleeps on its own slot's condvar until it is answered or
//! handed the role. The link lock is always taken before a slot lock,
//! never after. A slot generation counter (bumped on every submission
//! and on timeout) guards recycled slots against late deliveries.
//!
//! A `cast` encodes a [`MODE_CAST`] frame into the same out-buffer and
//! flushes it nonblocking; bytes the kernel does not take stay queued
//! for the next operation on that link. Casts are shed, never queued
//! without bound: past [`CAST_BACKLOG`] unsent bytes, or while the
//! site's circuit breaker is open.
//!
//! After warmup neither a round trip nor a cast touches the heap: slots,
//! buffers and queues reach a high-water mark and are recycled.
//!
//! # Exactly-once retries
//!
//! Retries are governed by one invariant: **a request may be re-sent
//! only if it provably never reached the server**. Each link tracks the
//! absolute byte offset handed to the kernel; when a connection dies, a
//! pending call whose frame was not yet *fully* handed over is reported
//! [`CallOutcome::NotSent`] (a partial frame can never be decoded, let
//! alone applied) and `call` transparently retries once on a fresh
//! connection. Everything else — a flushed frame with no response, a
//! response timeout, any bytes of a response — is `Unavailable` with
//! **no second send**: the server may have applied the request, and
//! `Put`/OCC writes are not idempotent across duplicate delivery. Bytes
//! a flusher is writing outside the lock when another caller kills the
//! connection count as handed over, so that race errs on the side of no
//! re-send.

use crate::frame::{Fill, FrameReader, MAX_FRAME};
use crate::server::{epoch_checked, MODE_CALL_EPOCH, MODE_CALL_SEQ, MODE_CAST};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::MetaError;
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::SiteId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP connect deadline for calls.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Connect deadline when a cast finds its site unconnected: shorter, so
/// a down site costs little. A failed cast dial is a breaker strike, so
/// a dead site costs at most [`BREAKER_THRESHOLD`] dials before its
/// casts are shed.
const CAST_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// A cast is shed when its link already holds this many bytes the
/// kernel has not accepted: a target that stops reading must not grow
/// the out-buffer without bound. Lazy pushes are best-effort — a miss at
/// the hash owner is repaired by the next read probing further, and the
/// *sync agent* never uses `cast` (it requires acked delivery; see
/// `geometa_core::runtime::drive_sync_agent`).
const CAST_BACKLOG: usize = 4 << 20;

/// Consecutive transport-level failures before a site's breaker opens.
/// Three strikes separates a stray timeout from a dead peer without
/// letting a flapping site eat `call_timeout` per operation.
const BREAKER_THRESHOLD: u32 = 3;
/// First open-interval for a tripped breaker; doubles per re-open.
const BREAKER_BASE: Duration = Duration::from_millis(250);
/// Ceiling on the open interval (pre-jitter).
const BREAKER_CAP: Duration = Duration::from_secs(8);
/// Multiplicative jitter on every open interval (`±25%`) so many
/// clients that watched the same site die do not half-open in lockstep.
const BREAKER_JITTER: f64 = 0.25;
/// Seed for the breaker's jitter stream (per-transport deterministic).
const BREAKER_SEED: u64 = 0x0B4E_A4E4_5EED;

/// Per-site breaker record.
#[derive(Default)]
struct SiteBreaker {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Times this breaker has opened since the last success (drives the
    /// exponential open interval).
    opens: u32,
    /// Open until this deadline; `None` = closed (or half-open once a
    /// previous deadline passed).
    open_until: Option<Instant>,
}

/// Per-site circuit breaker, layered on the exactly-once retry rule: it
/// watches **transport-level** outcomes only. Any correlated response —
/// including a server-sent `Error { Unavailable }` — proves the
/// connection works and closes the breaker; only dial failures (calls'
/// and casts'), dead connections, and response timeouts count as
/// strikes. While it is open, casts to the site are shed.
///
/// States: closed (deliver) → after [`BREAKER_THRESHOLD`] consecutive
/// strikes, open (fast-fail without touching the socket) → when the
/// open interval lapses, half-open (the next call probes the site; a
/// success closes the breaker, a failure re-opens it at double the
/// interval, capped and jittered).
struct CircuitBreaker {
    rng: SplitMix64,
    sites: HashMap<SiteId, SiteBreaker>,
}

impl CircuitBreaker {
    fn new(seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            rng: SplitMix64::new(seed),
            sites: HashMap::new(),
        }
    }

    /// Whether calls to `target` should fast-fail right now.
    fn is_open(&self, target: SiteId, now: Instant) -> bool {
        self.sites
            .get(&target)
            .and_then(|s| s.open_until)
            .is_some_and(|t| now < t)
    }

    /// A correlated response arrived: the site is reachable. Full reset.
    fn record_success(&mut self, target: SiteId) {
        self.sites.remove(&target);
    }

    /// A transport-level failure. Returns the open interval when this
    /// strike tripped (or re-tripped) the breaker.
    fn record_failure(&mut self, target: SiteId, now: Instant) -> Option<Duration> {
        let s = self.sites.entry(target).or_default();
        s.failures = s.failures.saturating_add(1);
        // Before the first open, demand a full threshold of strikes; in
        // half-open, a single failed probe re-opens immediately.
        if s.opens == 0 && s.failures < BREAKER_THRESHOLD {
            return None;
        }
        s.opens = s.opens.saturating_add(1);
        let base = BREAKER_BASE
            .saturating_mul(1u32 << (s.opens - 1).min(16))
            .min(BREAKER_CAP);
        let delay = base.mul_f64(1.0 + self.rng.jitter(BREAKER_JITTER));
        s.open_until = Some(now + delay);
        Some(delay)
    }
}

/// How one submitted call ended.
enum CallOutcome {
    /// A correlated response arrived.
    Response(RegistryResponse),
    /// The connection died before this call's frame fully reached the
    /// kernel: the server cannot have seen it — safe to retry.
    NotSent,
    /// The frame was flushed but the connection died before a response:
    /// the server may have applied it — **never** re-send.
    Failed,
}

/// Mutable state of one call slot, guarded by the slot's mutex.
struct SlotState {
    /// Submission generation: bumped by the caller on every submission
    /// and again on timeout, so a late delivery against a stale
    /// generation is dropped instead of resolving a recycled slot.
    gen: u64,
    /// The verdict for the current generation.
    outcome: Option<CallOutcome>,
    /// The link's reader role was handed to this caller.
    promoted: bool,
}

/// One slot of the call slab: a waiting caller sleeps on `cv` until its
/// outcome is delivered or the reader role is handed to it.
struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl CallSlot {
    fn new() -> CallSlot {
        CallSlot {
            state: Mutex::new(SlotState {
                gen: 0,
                outcome: None,
                promoted: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Deliver `outcome` to a slot if its generation still matches, waking
/// the waiting caller.
fn deliver(slot: &CallSlot, gen: u64, outcome: CallOutcome) {
    let mut st = slot.state.lock();
    if st.gen == gen {
        st.outcome = Some(outcome);
        slot.cv.notify_one();
    }
}

/// Take the slot's outcome, if one has been delivered.
fn take_outcome(slot: &CallSlot) -> Option<CallOutcome> {
    slot.state.lock().outcome.take()
}

/// A call waiting for its response on a link.
struct PendingCall {
    seq: u32,
    /// Absolute output offset one past this call's frame: the frame is
    /// fully in the kernel iff `end_abs <= flushed_abs`.
    end_abs: u64,
    slot: Arc<CallSlot>,
    /// Generation the slot was submitted under (guards late delivery).
    gen: u64,
}

/// One live connection: the socket plus the single-fd poller its reader
/// waits on. Shared so the reader and a flusher can use it outside the
/// link lock; on re-locking, `Arc::ptr_eq` against the link's current
/// socket tells them whether their connection is still the live one.
struct Sock {
    stream: TcpStream,
    poller: Poller,
}

impl Sock {
    fn dial(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Arc<Sock>> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let poller = Poller::new()?;
        poller.add(&stream, Event::readable(0))?;
        Ok(Arc::new(Sock { stream, poller }))
    }
}

/// Everything one link's callers share, guarded by the link mutex.
struct LinkState {
    /// The live connection; `None` before the first dial and after the
    /// connection died.
    sock: Option<Arc<Sock>>,
    reader: FrameReader,
    /// Bytes queued and not yet handed to a flusher.
    out: Vec<u8>,
    /// The flusher's buffer between flushes: swapped with `out` when a
    /// flush starts, so both keep their capacity.
    spare: Vec<u8>,
    /// Calls awaiting a response, oldest first.
    pending: VecDeque<PendingCall>,
    /// The reader's poll scratch, lent out while it polls.
    events: Vec<Event>,
    /// Lifetime bytes the kernel accepted on this connection.
    flushed_abs: u64,
    /// Lifetime bytes handed to a flusher: `flushed_abs` plus whatever a
    /// flush in progress is writing outside the lock.
    handed_abs: u64,
    /// Lifetime bytes appended on this connection.
    queued_abs: u64,
    next_seq: u32,
    /// A caller holds the reader role.
    reading: bool,
    /// A caller is writing handed bytes outside the lock.
    flushing: bool,
    /// Whether the poller is registered for writability.
    poll_writable: bool,
}

impl LinkState {
    fn new() -> LinkState {
        LinkState {
            sock: None,
            reader: FrameReader::new(),
            out: Vec::new(),
            spare: Vec::new(),
            pending: VecDeque::new(),
            events: Vec::new(),
            flushed_abs: 0,
            handed_abs: 0,
            queued_abs: 0,
            next_seq: 0,
            reading: false,
            flushing: false,
            poll_writable: false,
        }
    }

    /// Whether `sock` is still this link's live connection.
    fn is_live(&self, sock: &Arc<Sock>) -> bool {
        self.sock.as_ref().is_some_and(|s| Arc::ptr_eq(s, sock))
    }

    /// Append one frame — `[len][mode][header][request]` — to the
    /// out-buffer, encoding the request in place. False (and nothing
    /// appended) when the frame would exceed [`MAX_FRAME`].
    // geometa-hot
    fn push_frame(&mut self, mode: u8, header: &[u8], req: &RegistryRequest) -> bool {
        let body = 1 + header.len() + req.encoded_len();
        if body > MAX_FRAME {
            return false;
        }
        self.out.extend_from_slice(&(body as u32).to_le_bytes());
        self.out.push(mode);
        self.out.extend_from_slice(header);
        req.encode_into(&mut self.out);
        self.queued_abs += (4 + body) as u64;
        true
    }

    /// Frame one call and record it pending. With an epoch the frame is
    /// `[MODE_CALL_EPOCH][seq][epoch][req]`, without it
    /// `[MODE_CALL_SEQ][seq][req]`. False when the call is unframeable.
    // geometa-hot
    fn enqueue_call(
        &mut self,
        req: &RegistryRequest,
        epoch: Option<u64>,
        slot: &Arc<CallSlot>,
        gen: u64,
    ) -> bool {
        let seq = self.next_seq;
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&seq.to_le_bytes());
        let (mode, header_len) = match epoch {
            Some(e) => {
                header[4..].copy_from_slice(&e.to_le_bytes());
                (MODE_CALL_EPOCH, 12)
            }
            None => (MODE_CALL_SEQ, 4),
        };
        if !self.push_frame(mode, &header[..header_len], req) {
            return false;
        }
        self.next_seq = seq.wrapping_add(1);
        self.pending.push_back(PendingCall {
            seq,
            end_abs: self.queued_abs,
            slot: Arc::clone(slot),
            gen,
        });
        true
    }

    /// One nonblocking read, then resolve every complete response frame.
    /// False when the connection must be dropped. Responses that made it
    /// through before the stream died still resolve — those callers get
    /// real answers, not `Unavailable`. Frames are popped as ranges into
    /// the read buffer: correlating a response touches the heap only
    /// when it carries a payload (`Found`/`Delta`/`Status`) that must
    /// outlive the buffer.
    // geometa-hot
    fn read_ready(&mut self, sock: &Sock) -> bool {
        let alive = matches!(
            self.reader.fill(&mut &sock.stream),
            Ok(Fill::Progress | Fill::Idle)
        );
        loop {
            match self.reader.next_frame_range() {
                Ok(Some(range)) => {
                    if !resolve_frame(&self.reader, range, &mut self.pending) {
                        return false;
                    }
                }
                Ok(None) => return alive,
                Err(_) => return false,
            }
        }
    }

    /// Hand the reader role to the oldest pending call, if any.
    fn promote_oldest(&self) {
        if let Some(p) = self.pending.front() {
            let mut st = p.slot.state.lock();
            if st.gen == p.gen {
                st.promoted = true;
                p.slot.cv.notify_one();
            }
        }
    }

    /// The connection is dead: report every pending call per the
    /// exactly-once rule — frames fully handed to the kernel *may* have
    /// been applied (`Failed`), the rest cannot have been (`NotSent`) —
    /// and reset the link for the next dial. A reader or flusher still
    /// working on the old socket finds it no longer live and backs off.
    fn kill(&mut self) {
        self.sock = None;
        for p in self.pending.drain(..) {
            let outcome = if p.end_abs <= self.handed_abs {
                CallOutcome::Failed
            } else {
                CallOutcome::NotSent
            };
            deliver(&p.slot, p.gen, outcome);
        }
        self.reader = FrameReader::new();
        self.out.clear();
        self.flushed_abs = 0;
        self.handed_abs = 0;
        self.queued_abs = 0;
        self.next_seq = 0;
        self.reading = false;
        self.flushing = false;
        self.poll_writable = false;
    }
}

/// Correlate one response frame (`[u32_le seq][response]`) back to its
/// caller. False on a protocol violation. Fixed-shape responses (`Ack`,
/// payload-free errors) decode straight from the borrowed frame view;
/// everything else is copied out of the read buffer first. A garbled
/// response still *arrived*: per the exactly-once contract it resolves
/// the call (as a codec error), it does not trigger a retry. An unknown
/// seq is a caller that already timed out — nothing to do.
// geometa-hot
fn resolve_frame(
    reader: &FrameReader,
    range: std::ops::Range<usize>,
    pending: &mut VecDeque<PendingCall>,
) -> bool {
    let body = reader.view(range.clone());
    if body.len() < 4 {
        return false;
    }
    let seq = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    let Some(pos) = pending.iter().position(|p| p.seq == seq) else {
        return true;
    };
    let resp = match protocol::decode_fixed_response(&body[4..]) {
        Some(resp) => resp,
        None => match RegistryResponse::decode(reader.materialize(range.start + 4..range.end)) {
            Ok(resp) => resp,
            Err(error) => RegistryResponse::Error { error },
        },
    };
    if let Some(p) = pending.remove(pos) {
        deliver(&p.slot, p.gen, CallOutcome::Response(resp));
    }
    true
}

/// Write `buf` to a nonblocking socket until it is all written or the
/// kernel refuses more. Returns the bytes written and how it ended
/// (`WouldBlock` = the socket buffer is full, the rest must wait).
fn write_nonblocking(mut stream: &TcpStream, buf: &[u8]) -> (usize, std::io::Result<()>) {
    let mut written = 0;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => return (written, Err(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return (written, Err(e)),
        }
    }
    (written, Ok(()))
}

/// One target site's connection state (see the module docs).
struct Link {
    addr: SocketAddr,
    state: Mutex<LinkState>,
}

impl Link {
    fn new(addr: SocketAddr) -> Link {
        Link {
            addr,
            state: Mutex::new(LinkState::new()),
        }
    }

    /// Make sure the link has a live connection, dialing with `timeout`
    /// when it has none. An idle connection — no reader, nothing pending
    /// or queued — is probed first with one nonblocking read: a peer
    /// that closed it while nobody was reading (a restart, an idle reap)
    /// must be redialed *before* a frame is written into it, because
    /// afterwards the frame would count as sent and could not be
    /// retried. False when the dial failed.
    // geometa-hot
    fn connect(&self, st: &mut LinkState, timeout: Duration) -> bool {
        if let Some(sock) = st.sock.clone() {
            let idle = st.pending.is_empty() && st.out.is_empty() && !st.reading && !st.flushing;
            if !idle || st.read_ready(&sock) {
                return true;
            }
            st.kill();
        }
        match Sock::dial(&self.addr, timeout) {
            Ok(sock) => {
                st.sock = Some(sock);
                true
            }
            Err(_) => false,
        }
    }

    /// Write everything queued on the link — unless another caller's
    /// flush is in progress, which will pick these bytes up. The write
    /// runs outside the lock so concurrent callers keep appending, and
    /// the loop goes round while they do: their frames leave together in
    /// the next kernel write. Bytes the kernel refuses stay queued for
    /// the next operation (or the reader, which polls for writability).
    // geometa-hot
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, LinkState>) -> MutexGuard<'a, LinkState> {
        loop {
            if st.flushing || st.out.is_empty() {
                return st;
            }
            let Some(sock) = st.sock.clone() else {
                return st;
            };
            let state = &mut *st;
            std::mem::swap(&mut state.out, &mut state.spare);
            let mut buf = std::mem::take(&mut state.spare);
            state.handed_abs = state.flushed_abs + buf.len() as u64;
            state.flushing = true;
            drop(st);
            let (written, result) = write_nonblocking(&sock.stream, &buf);
            st = self.state.lock();
            if !st.is_live(&sock) {
                // Killed meanwhile: these bytes belonged to the dead
                // connection, and its pending calls were already told.
                buf.clear();
                st.spare = buf;
                return st;
            }
            let state = &mut *st;
            state.flushing = false;
            state.flushed_abs += written as u64;
            state.handed_abs = state.flushed_abs;
            match result {
                Ok(()) => {
                    buf.clear();
                    state.spare = buf;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Put the unwritten tail back in front of whatever
                    // was appended meanwhile.
                    buf.drain(..written);
                    buf.extend_from_slice(&state.out);
                    std::mem::swap(&mut state.out, &mut buf);
                    buf.clear();
                    state.spare = buf;
                    return st;
                }
                Err(_) => {
                    st.kill();
                    return st;
                }
            }
        }
    }

    /// Hold the reader role (already claimed by the caller) until the
    /// caller's own outcome arrives, its deadline passes or the
    /// connection dies; then pass the role to the oldest pending call.
    // geometa-hot
    fn lead<'a>(
        &'a self,
        mut st: MutexGuard<'a, LinkState>,
        slot: &CallSlot,
        deadline: Instant,
        tick: Duration,
    ) -> MutexGuard<'a, LinkState> {
        let Some(sock) = st.sock.clone() else {
            st.reading = false;
            return st;
        };
        loop {
            // Poll for writability only while bytes wait on a full
            // socket buffer and no flush is under way.
            let want_write = !st.out.is_empty() && !st.flushing;
            if want_write != st.poll_writable {
                let interest = Event {
                    key: 0,
                    readable: true,
                    writable: want_write,
                };
                if sock.poller.modify(&sock.stream, interest).is_err() {
                    st.kill();
                    return st;
                }
                st.poll_writable = want_write;
            }
            let mut events = std::mem::take(&mut st.events);
            drop(st);
            events.clear();
            let slice = tick.min(deadline.saturating_duration_since(Instant::now()));
            let polled = sock.poller.wait(&mut events, Some(slice));
            st = self.state.lock();
            let ready = !events.is_empty();
            st.events = events;
            if !st.is_live(&sock) {
                // Killed meanwhile: every pending call, this one too, has
                // its outcome, and the role was reset with the link.
                return st;
            }
            if polled.is_err() {
                st.kill();
                return st;
            }
            if ready {
                if want_write {
                    st = self.flush(st);
                    if !st.is_live(&sock) {
                        return st;
                    }
                }
                if !st.read_ready(&sock) {
                    st.kill();
                    return st;
                }
            }
            if slot.state.lock().outcome.is_some() || Instant::now() >= deadline {
                st.reading = false;
                st.promote_oldest();
                return st;
            }
        }
    }

    /// Wait for the outcome of the call just queued under `gen`, leading
    /// the link's reads whenever the reader role is free. `None` on
    /// timeout: the call is dropped from the pending queue (a late
    /// response is ignored) and never re-sent.
    // geometa-hot
    fn await_outcome<'a>(
        &'a self,
        mut st: MutexGuard<'a, LinkState>,
        slot: &CallSlot,
        gen: u64,
        deadline: Instant,
        tick: Duration,
    ) -> Option<CallOutcome> {
        loop {
            if let Some(outcome) = take_outcome(slot) {
                return Some(outcome);
            }
            if Instant::now() >= deadline {
                if let Some(pos) = st
                    .pending
                    .iter()
                    .position(|p| p.gen == gen && std::ptr::eq(&*p.slot, slot))
                {
                    st.pending.remove(pos);
                }
                // A role handed to this caller must not die with it.
                if !st.reading {
                    st.promote_oldest();
                }
                let mut s = slot.state.lock();
                s.gen = s.gen.wrapping_add(1);
                return s.outcome.take();
            }
            if !st.reading && st.sock.is_some() {
                st.reading = true;
                st = self.lead(st, slot, deadline, tick);
                continue;
            }
            drop(st);
            {
                let mut s = slot.state.lock();
                while s.outcome.is_none() && !s.promoted {
                    if slot.cv.wait_until(&mut s, deadline).timed_out() {
                        break;
                    }
                }
                s.promoted = false;
            }
            st = self.state.lock();
        }
    }
}

/// A pipelining, reconnecting [`RegistryTransport`] over framed TCP,
/// driven by its callers (see the module docs).
///
/// * **Pipelining** — all calls to one target share one connection;
///   many can be in flight at once, correlated by sequence id, and
///   frames queued together coalesce into one kernel write.
/// * **Exactly-once retries** — a call is re-sent only when its frame
///   provably never fully reached the kernel (connect failure, partial
///   flush). Timeouts and post-flush failures surface as `Unavailable`
///   without a second send.
/// * **Fire-and-forget casts** — `cast` appends its frame to the link
///   and writes what the kernel takes without waiting; a slow or dead
///   target cannot stall the lazy path.
pub struct TcpClientTransport {
    /// One link per known site, indexed by `SiteId.0` (site ids are
    /// dense).
    links: Vec<Option<Link>>,
    call_timeout: Duration,
    /// The reader's poll slice: how long a reader may sit in `poll`
    /// before re-checking its deadline and the link's liveness.
    io_tick: Duration,
    boot: Instant,
    /// Last membership epoch learned from the cluster; stamped on every
    /// epoch-checked call frame. Starts at 0, matching a fresh cluster;
    /// a stale value is corrected by the first `WrongEpoch` rejection.
    mem_epoch: AtomicU64,
    /// Per-site breaker (see [`CircuitBreaker`]), shared by calls and
    /// casts.
    breaker: Mutex<CircuitBreaker>,
    /// Calls answered `Unavailable` without touching the socket because
    /// the target's breaker was open.
    breaker_fast_fails: AtomicU64,
    /// Casts dropped without reaching the socket: open breaker, a full
    /// backlog, a failed dial, or an unframeable request.
    casts_shed: AtomicU64,
    /// Recycled call slots; grows (one `Arc`) only while warming up past
    /// its previous high-water mark.
    free_slots: Mutex<Vec<Arc<CallSlot>>>,
}

impl TcpClientTransport {
    /// A transport dialing `addrs` (lazily, per target). Routing is fully
    /// determined by the target argument of each call, so one instance is
    /// shared by clients at every site. `io_tick` is the reader's poll
    /// slice — how quickly a reader notices that another caller closed
    /// the connection under it — plumbed from `TcpConfig::read_timeout`
    /// by the TCP layer.
    pub fn new(
        addrs: HashMap<SiteId, SocketAddr>,
        call_timeout: Duration,
        io_tick: Duration,
    ) -> TcpClientTransport {
        let mut links: Vec<Option<Link>> = Vec::new();
        for (&site, &addr) in &addrs {
            let key = site.0 as usize;
            if key >= links.len() {
                links.resize_with(key + 1, || None);
            }
            links[key] = Some(Link::new(addr));
        }
        TcpClientTransport {
            links,
            call_timeout,
            io_tick,
            boot: Instant::now(),
            mem_epoch: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_SEED)),
            breaker_fast_fails: AtomicU64::new(0),
            casts_shed: AtomicU64::new(0),
            free_slots: Mutex::new(Vec::new()),
        }
    }

    fn link(&self, target: SiteId) -> Option<&Link> {
        self.links.get(target.0 as usize).and_then(Option::as_ref)
    }

    /// Run one call on an acquired slot: frame, flush, wait, and apply
    /// the exactly-once retry rule. The slot is returned to the free
    /// list by the caller ([`RegistryTransport::call`]).
    // geometa-hot
    fn call_on_slot(
        &self,
        slot: &Arc<CallSlot>,
        target: SiteId,
        epoch: Option<u64>,
        req: &RegistryRequest,
    ) -> RegistryResponse {
        for attempt in 0..2 {
            let gen = {
                let mut st = slot.state.lock();
                st.gen = st.gen.wrapping_add(1);
                st.outcome = None;
                st.promoted = false;
                st.gen
            };
            let outcome = match self.link(target) {
                Some(link) => self.round_trip(link, slot, gen, epoch, req),
                None => Some(CallOutcome::NotSent), // unknown site
            };
            match outcome {
                Some(CallOutcome::Response(resp)) => {
                    // Any correlated response — even a server-sent error
                    // — proves the transport works: close the breaker.
                    self.breaker.lock().record_success(target);
                    // A WrongEpoch rejection names the current epoch:
                    // adopt it eagerly so the very next call is stamped
                    // correctly even before the caller re-plans.
                    if let RegistryResponse::Error {
                        error: MetaError::WrongEpoch { epoch },
                    } = resp
                    {
                        self.mem_epoch.store(epoch, Ordering::Release);
                    }
                    return resp;
                }
                // The frame never fully reached the kernel: the one case
                // where a second send cannot double-apply.
                Some(CallOutcome::NotSent) if attempt == 0 => continue,
                // Flushed-but-unanswered, exhausted retries, or a
                // timeout: the server may have applied the request —
                // report Unavailable, never re-send.
                Some(CallOutcome::NotSent) | Some(CallOutcome::Failed) | None => break,
            }
        }
        self.breaker.lock().record_failure(target, Instant::now());
        RegistryResponse::Error {
            error: MetaError::Unavailable,
        }
    }

    /// One attempt: dial if needed, frame the request into the link,
    /// flush, and wait for the outcome.
    // geometa-hot
    fn round_trip(
        &self,
        link: &Link,
        slot: &Arc<CallSlot>,
        gen: u64,
        epoch: Option<u64>,
        req: &RegistryRequest,
    ) -> Option<CallOutcome> {
        let mut st = link.state.lock();
        if !link.connect(&mut st, CONNECT_TIMEOUT) || !st.enqueue_call(req, epoch, slot, gen) {
            return Some(CallOutcome::NotSent);
        }
        let deadline = Instant::now() + self.call_timeout;
        let st = link.flush(st);
        link.await_outcome(st, slot, gen, deadline, self.io_tick)
    }

    /// Membership epoch this transport currently stamps on calls.
    pub fn membership_epoch(&self) -> u64 {
        self.mem_epoch.load(Ordering::Acquire)
    }

    /// Whether `target`'s breaker is open right now.
    pub fn breaker_open(&self, target: SiteId) -> bool {
        self.breaker.lock().is_open(target, Instant::now())
    }

    /// Calls fast-failed without touching the socket (open breaker).
    pub fn breaker_fast_fails(&self) -> u64 {
        self.breaker_fast_fails.load(Ordering::Relaxed)
    }

    /// Casts dropped without reaching the socket (see the field docs).
    pub fn casts_shed(&self) -> u64 {
        self.casts_shed.load(Ordering::Relaxed)
    }
}

impl RegistryTransport for TcpClientTransport {
    // geometa-hot
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        // Epoch-checked requests carry the cached membership epoch and
        // respect the breaker. Exempt requests (Status, Reconfigure,
        // replication plumbing) always go through — they are how a
        // half-open site is probed and how stale clients re-learn the
        // membership, so fast-failing them would wedge recovery.
        let checked = epoch_checked(&req);
        if checked && self.breaker.lock().is_open(target, Instant::now()) {
            self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            return RegistryResponse::Error {
                error: MetaError::Unavailable,
            };
        }
        let epoch = checked.then(|| self.mem_epoch.load(Ordering::Acquire));
        let slot = {
            let recycled = self.free_slots.lock().pop();
            recycled.unwrap_or_else(|| Arc::new(CallSlot::new()))
        };
        let resp = self.call_on_slot(&slot, target, epoch, &req);
        self.free_slots.lock().push(slot);
        resp
    }

    /// Frame the cast into the target's link and write what the kernel
    /// takes, on the caller's thread; never waits on the target. Under
    /// breaker pressure lazy pushes are sacrificed before acked calls
    /// (best-effort semantics; absorb idempotence re-converges).
    // geometa-hot
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let Some(link) = self.link(target) else {
            return;
        };
        if self.breaker.lock().is_open(target, Instant::now()) {
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut st = link.state.lock();
        if st.out.len() >= CAST_BACKLOG {
            drop(st);
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !link.connect(&mut st, CAST_CONNECT_TIMEOUT) {
            drop(st);
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
            self.breaker.lock().record_failure(target, Instant::now());
            return;
        }
        if !st.push_frame(MODE_CAST, &[], &req) {
            drop(st);
            self.casts_shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        drop(link.flush(st));
    }

    fn now_micros(&self) -> u64 {
        self.boot.elapsed().as_micros() as u64
    }

    fn sites(&self) -> Vec<SiteId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, link)| link.is_some())
            .map(|(i, _)| SiteId(i as u16))
            .collect()
    }

    /// Ask the cluster for the current membership: probe every known
    /// address (breaker-exempt `Status` calls) until one answers, adopt
    /// its epoch, and hand `(epoch, members)` to the caller for
    /// re-planning.
    fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
        for site in self.sites() {
            if let RegistryResponse::Status { status } = self.call(site, RegistryRequest::Status) {
                self.mem_epoch.store(status.epoch, Ordering::Release);
                return Some((status.epoch, status.members));
            }
        }
        None
    }
}

/// Convenience: a transport for a cluster listening on `addrs[i]` for
/// site *i* (the `geometa-load --connect` path).
pub fn transport_for(addrs: &[SocketAddr], call_timeout: Duration) -> Arc<TcpClientTransport> {
    // geometa-lint: allow(unordered-iter) `addrs` here is the slice parameter (caller-ordered), not a HashMap
    let map = addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| (SiteId(i as u16), a))
        .collect();
    Arc::new(TcpClientTransport::new(
        map,
        call_timeout,
        Duration::from_millis(25),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(key: &str) -> RegistryRequest {
        RegistryRequest::Get { key: key.into() }
    }

    #[test]
    fn pending_calls_resolve_by_the_flushed_bytes_rule() {
        // Two frames queued; only the first fully handed to the kernel
        // when the connection dies. The first may have been applied
        // (Failed), the second provably was not (NotSent).
        let mut link = LinkState::new();
        let slot1 = Arc::new(CallSlot::new());
        let slot2 = Arc::new(CallSlot::new());
        assert!(link.enqueue_call(&get("first"), None, &slot1, 0));
        let first_end = link.queued_abs;
        assert!(link.enqueue_call(&get("second"), None, &slot2, 0));
        // Pretend the kernel took the first frame plus half the second.
        link.flushed_abs = first_end + 3;
        link.handed_abs = link.flushed_abs;
        link.kill();
        assert!(matches!(
            slot1.state.lock().outcome,
            Some(CallOutcome::Failed)
        ));
        assert!(matches!(
            slot2.state.lock().outcome,
            Some(CallOutcome::NotSent)
        ));
        assert!(link.pending.is_empty() && link.out.is_empty());
    }

    #[test]
    fn bytes_in_flight_at_kill_count_as_sent() {
        // A flusher is writing both frames outside the lock when another
        // caller kills the connection: neither may be re-sent.
        let mut link = LinkState::new();
        let slot1 = Arc::new(CallSlot::new());
        let slot2 = Arc::new(CallSlot::new());
        link.enqueue_call(&get("a"), None, &slot1, 0);
        link.enqueue_call(&get("b"), None, &slot2, 0);
        link.handed_abs = link.queued_abs;
        link.flushing = true;
        link.kill();
        for slot in [&slot1, &slot2] {
            assert!(matches!(
                slot.state.lock().outcome,
                Some(CallOutcome::Failed)
            ));
        }
        assert!(!link.flushing && !link.reading);
    }

    #[test]
    fn stale_generation_deliveries_are_dropped() {
        let slot = Arc::new(CallSlot::new());
        slot.state.lock().gen = 7;
        deliver(&slot, 6, CallOutcome::Failed);
        assert!(slot.state.lock().outcome.is_none(), "stale gen must drop");
        deliver(&slot, 7, CallOutcome::Failed);
        assert!(matches!(
            slot.state.lock().outcome,
            Some(CallOutcome::Failed)
        ));
    }

    #[test]
    fn epoch_calls_are_framed_as_mode_call_epoch() {
        let mut link = LinkState::new();
        let slot = Arc::new(CallSlot::new());
        let req = RegistryRequest::Status;
        assert!(link.enqueue_call(&req, Some(0xDEAD_BEEF_0042), &slot, 0));
        // [len u32][mode][seq u32][epoch u64][body]
        let out = &link.out;
        let body = req.encode();
        let len = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
        assert_eq!(len, 1 + 4 + 8 + body.len());
        assert_eq!(out[4], MODE_CALL_EPOCH);
        assert_eq!(&out[5..9], &0u32.to_le_bytes());
        assert_eq!(
            u64::from_le_bytes(out[9..17].try_into().unwrap()),
            0xDEAD_BEEF_0042
        );
        assert_eq!(&out[17..], &body[..]);
        assert_eq!(link.queued_abs, (4 + len) as u64);
    }

    #[test]
    fn casts_are_framed_as_mode_cast() {
        let mut link = LinkState::new();
        let req = get("lazy/k");
        assert!(link.push_frame(MODE_CAST, &[], &req));
        let body = req.encode();
        let out = &link.out;
        let len = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
        assert_eq!(len, 1 + body.len());
        assert_eq!(out[4], MODE_CAST);
        assert_eq!(&out[5..], &body[..]);
        assert!(link.pending.is_empty(), "a cast awaits no response");
    }

    #[test]
    fn breaker_opens_after_threshold_and_halfopen_reopens_on_failure() {
        let mut b = CircuitBreaker::new(1);
        let t = SiteId(0);
        let now = Instant::now();
        // Two strikes: still closed.
        assert!(b.record_failure(t, now).is_none());
        assert!(b.record_failure(t, now).is_none());
        assert!(!b.is_open(t, now));
        // Third strike trips it, within the jitter band of the base.
        let d1 = b.record_failure(t, now).expect("threshold trips");
        assert!(d1 >= BREAKER_BASE.mul_f64(1.0 - BREAKER_JITTER));
        assert!(d1 <= BREAKER_BASE.mul_f64(1.0 + BREAKER_JITTER));
        assert!(b.is_open(t, now));
        // The interval lapses: half-open (not open), and one failed
        // probe re-opens immediately at roughly double the interval.
        let later = now + d1;
        assert!(!b.is_open(t, later));
        let d2 = b
            .record_failure(t, later)
            .expect("half-open failure re-opens");
        assert!(d2 >= (BREAKER_BASE * 2).mul_f64(1.0 - BREAKER_JITTER));
        assert!(b.is_open(t, later));
    }

    #[test]
    fn breaker_success_closes_and_resets_the_schedule() {
        let mut b = CircuitBreaker::new(2);
        let (t, u) = (SiteId(3), SiteId(4));
        let now = Instant::now();
        for _ in 0..6 {
            b.record_failure(t, now);
        }
        assert!(b.is_open(t, now));
        assert!(!b.is_open(u, now), "breakers are per-site");
        b.record_success(t);
        assert!(!b.is_open(t, now));
        // After the reset a single failure is a first strike again.
        assert!(b.record_failure(t, now).is_none());
    }

    #[test]
    fn breaker_open_interval_caps_out() {
        let mut b = CircuitBreaker::new(3);
        let t = SiteId(0);
        let now = Instant::now();
        let mut last = Duration::ZERO;
        for _ in 0..24 {
            if let Some(d) = b.record_failure(t, now) {
                last = d;
            }
        }
        assert!(last <= BREAKER_CAP.mul_f64(1.0 + BREAKER_JITTER));
        assert!(last >= BREAKER_CAP.mul_f64(1.0 - BREAKER_JITTER));
    }
}
