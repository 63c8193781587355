//! Wire-level regression tests for the pipelined client: exactly-once
//! call delivery (the PR 8 headline bugfix), sequence-id correlation
//! under fragmented out-of-order delivery, reconnects, and fast failure
//! on refused connections. Every test runs the real `TcpClientTransport`
//! against a hand-rolled fake server so the exact byte traffic — most
//! importantly *how many request frames the server ever saw* — can be
//! asserted.

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_core::{FileLocation, MetaError, RegistryEntry};
use geometa_net::frame::{Fill, FrameReader};
use geometa_net::server::{MODE_CALL_EPOCH, MODE_CALL_SEQ, MODE_CAST};
use geometa_net::TcpClientTransport;
use geometa_sim::topology::SiteId;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn transport_to(addr: SocketAddr, call_timeout: Duration) -> TcpClientTransport {
    let addrs: HashMap<SiteId, SocketAddr> = std::iter::once((SiteId(0), addr)).collect();
    TcpClientTransport::new(addrs, call_timeout, Duration::from_millis(5))
}

/// Read one complete frame off a blocking socket (test-side peer).
fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<bytes::Bytes> {
    loop {
        match reader.next_frame().expect("well-framed traffic") {
            Some(body) => return Some(body),
            None => match reader.fill(stream).ok()? {
                Fill::Progress | Fill::Idle => continue,
                Fill::Eof => return None,
            },
        }
    }
}

/// Split a client call frame body into (seq, decoded request).
/// Epoch-checked requests (Get/Put/Remove) arrive as CALL_EPOCH
/// (`[mode][seq][epoch u64][req]`), the rest as CALL_SEQ
/// (`[mode][seq][req]`); the response format is the same for both.
fn parse_call(body: &bytes::Bytes) -> (u32, RegistryRequest) {
    let seq = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
    let req_at = match body[0] {
        MODE_CALL_SEQ => 5,
        MODE_CALL_EPOCH => 5 + 8,
        mode => panic!("pipelined client sent unexpected frame mode {mode}"),
    };
    let req = RegistryRequest::decode(body.slice(req_at..)).expect("decodable request");
    // Routing-sensitive requests must carry the epoch stamp — a client
    // that silently downgrades them to CALL_SEQ would dodge the
    // server's WrongEpoch staleness check.
    if matches!(
        req,
        RegistryRequest::Get { .. } | RegistryRequest::Put { .. } | RegistryRequest::Remove { .. }
    ) {
        assert_eq!(body[0], MODE_CALL_EPOCH, "{req:?} must be epoch-stamped");
    }
    (seq, req)
}

/// Frame a CALL_SEQ response (`[u32 seq][response]`) onto a byte buffer.
fn push_response(wire: &mut Vec<u8>, seq: u32, resp: &RegistryResponse) {
    let mut body = seq.to_le_bytes().to_vec();
    body.extend_from_slice(&resp.encode());
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
}

fn put_request(name: &str) -> RegistryRequest {
    RegistryRequest::Put {
        entry: RegistryEntry::new(
            name.to_string(),
            1,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            0,
        ),
    }
}

/// **The headline regression.** A server that *applies* the write, then
/// stalls past the client's call timeout before responding, must see the
/// request exactly once: the old pooled client retried on `TimedOut` and
/// delivered (and applied) the Put twice.
#[test]
fn timed_out_call_is_never_resent() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let call_timeout = Duration::from_millis(250);

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> usize {
        let mut applied = 0usize;
        // Serve connections until the whole test window closes; a
        // retrying client would show up either on this connection or on
        // a fresh one, and both paths land in `applied`.
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut conns: Vec<(TcpStream, FrameReader)> = Vec::new();
        while Instant::now() < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_read_timeout(Some(Duration::from_millis(10)))
                        .expect("read timeout");
                    conns.push((stream, FrameReader::new()));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            for (stream, reader) in &mut conns {
                while let Ok(Some(body)) = reader.next_frame() {
                    let (seq, _req) = parse_call(&body);
                    applied += 1;
                    if applied == 1 {
                        // Apply, stall past the client's deadline, then
                        // answer — the classic slow-server shape.
                        std::thread::sleep(call_timeout * 3);
                        let mut wire = Vec::new();
                        push_response(&mut wire, seq, &RegistryResponse::Ack);
                        let _ = stream.write_all(&wire);
                        let _ = stream.flush();
                    }
                }
                let _ = reader.fill(stream);
            }
        }
        applied
    });

    let transport = transport_to(addr, call_timeout);
    let resp = transport.call(SiteId(0), put_request("exactly/once"));
    assert!(
        matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::Unavailable
            }
        ),
        "a timed-out call must surface Unavailable, got {resp:?}"
    );
    drop(transport);
    let applied = server.join().expect("server thread");
    assert_eq!(
        applied, 1,
        "the request must reach the server exactly once — a second frame means the client re-sent after TimedOut"
    );
}

/// N interleaved in-flight calls on ONE connection resolve to the
/// correct callers even when the server answers in reverse order and
/// dribbles the bytes a few at a time (arbitrary refragmentation, the
/// `frames_survive_arbitrary_fragmentation` scaffolding taken to the
/// transport level).
#[test]
fn pipelined_responses_correlate_under_fragmented_out_of_order_delivery() {
    const CALLERS: usize = 16;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        // Hold every request until all callers are in flight — that is
        // what makes this *pipelining* and not sequential round trips.
        let mut calls: Vec<(u32, RegistryRequest)> = Vec::new();
        while calls.len() < CALLERS {
            let body = read_frame(&mut stream, &mut reader).expect("request frame");
            calls.push(parse_call(&body));
        }
        // Answer in reverse arrival order: each response names the key
        // its request asked for, so a mis-correlated client is caught.
        let mut wire = Vec::new();
        for (seq, req) in calls.iter().rev() {
            let RegistryRequest::Get { key } = req else {
                panic!("expected Get, got {req:?}");
            };
            let idx: u64 = key
                .as_str()
                .trim_start_matches("pipelined/k")
                .parse()
                .expect("key suffix");
            let resp = RegistryResponse::Found {
                entry: RegistryEntry::new(
                    key.as_str().to_string(),
                    1000 + idx,
                    FileLocation {
                        site: SiteId(0),
                        node: 0,
                    },
                    0,
                ),
            };
            push_response(&mut wire, *seq, &resp);
        }
        // Dribble the response bytes in tiny slices.
        for chunk in wire.chunks(5) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_micros(300));
        }
    });

    let transport = std::sync::Arc::new(transport_to(addr, Duration::from_secs(10)));
    std::thread::scope(|scope| {
        for i in 0..CALLERS {
            let transport = std::sync::Arc::clone(&transport);
            scope.spawn(move || {
                let key = geometa_cache::Key::from(format!("pipelined/k{i}"));
                let resp = transport.call(SiteId(0), RegistryRequest::Get { key });
                let RegistryResponse::Found { entry } = resp else {
                    panic!("caller {i}: expected Found, got {resp:?}");
                };
                assert_eq!(entry.name.as_str(), format!("pipelined/k{i}"));
                assert_eq!(
                    entry.size,
                    1000 + i as u64,
                    "caller {i} received another caller's response"
                );
            });
        }
    });
    server.join().expect("server thread");
}

/// A server that closes the connection after each response: the next
/// call dials a fresh connection (the reactor reaps the dead one) and
/// every request is still delivered exactly once.
#[test]
fn reconnects_after_server_closes_idle_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> usize {
        let mut served = 0usize;
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new();
            let body = read_frame(&mut stream, &mut reader).expect("request");
            let (seq, _req) = parse_call(&body);
            served += 1;
            let mut wire = Vec::new();
            push_response(&mut wire, seq, &RegistryResponse::Ack);
            stream.write_all(&wire).expect("respond");
            stream.flush().expect("flush");
            // Close after responding (server restart / idle reap).
        }
        served
    });

    let transport = transport_to(addr, Duration::from_secs(5));
    let first = transport.call(SiteId(0), put_request("reconnect/a"));
    assert!(matches!(first, RegistryResponse::Ack), "got {first:?}");
    // Give the reactor a few ticks to observe the FIN and reap the
    // connection; the second call then dials fresh deterministically.
    std::thread::sleep(Duration::from_millis(100));
    let second = transport.call(SiteId(0), put_request("reconnect/b"));
    assert!(matches!(second, RegistryResponse::Ack), "got {second:?}");
    drop(transport);
    assert_eq!(server.join().expect("server"), 2);
}

/// A refused connection is a provable not-sent: the call fails fast as
/// Unavailable (after its one retry-safe redial) instead of burning the
/// full call timeout.
#[test]
fn refused_connection_fails_fast_as_unavailable() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
        // listener drops here: the port now refuses connections
    };
    let transport = transport_to(addr, Duration::from_secs(30));
    let t0 = Instant::now();
    let resp = transport.call(SiteId(0), put_request("refused"));
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::Unavailable
            }
        ),
        "got {resp:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "refused connect took {elapsed:?} — should fail fast, not wait out the call timeout"
    );
}

fn found(key: &str, size: u64) -> RegistryResponse {
    RegistryResponse::Found {
        entry: RegistryEntry::new(
            key.to_string(),
            size,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            0,
        ),
    }
}

/// Eight threads × 500 calls share one link: every response reaches its
/// own caller, the server accepts exactly one connection, and it sees
/// every request frame exactly once. The fake server answers each read
/// batch as it arrives, so readers hand the role on thousands of times
/// while other callers append and flush concurrently.
#[test]
fn eight_threads_share_one_link_and_every_frame_arrives_once() {
    const THREADS: usize = 8;
    const CALLS: usize = 500;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> (usize, HashMap<String, usize>) {
        let mut seen: HashMap<String, usize> = HashMap::new();
        let (mut stream, _) = listener.accept().expect("accept");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut accepted = 1;
        let mut reader = FrameReader::new();
        let mut wire = Vec::new();
        loop {
            match reader.fill(&mut stream).expect("read") {
                Fill::Eof => break,
                Fill::Idle => continue,
                Fill::Progress => {}
            }
            while let Some(body) = reader.next_frame().expect("well-framed traffic") {
                let (seq, req) = parse_call(&body);
                let RegistryRequest::Get { key } = req else {
                    panic!("expected Get, got {req:?}");
                };
                let size: u64 = key
                    .as_str()
                    .rsplit('/')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("key suffix");
                *seen.entry(key.as_str().to_string()).or_insert(0) += 1;
                push_response(&mut wire, seq, &found(key.as_str(), size));
            }
            stream.write_all(&wire).expect("respond");
            wire.clear();
        }
        while listener.accept().is_ok() {
            accepted += 1;
        }
        (accepted, seen)
    });

    let transport = transport_to(addr, Duration::from_secs(10));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let transport = &transport;
            scope.spawn(move || {
                for i in 0..CALLS {
                    let size = (t * CALLS + i) as u64;
                    let key = format!("link/t{t}/{size}");
                    let resp = transport.call(
                        SiteId(0),
                        RegistryRequest::Get {
                            key: key.as_str().into(),
                        },
                    );
                    let RegistryResponse::Found { entry } = resp else {
                        panic!("thread {t} call {i}: expected Found, got {resp:?}");
                    };
                    assert_eq!(entry.name.as_str(), key, "another caller's response");
                    assert_eq!(entry.size, size);
                }
            });
        }
    });
    drop(transport);
    let (accepted, seen) = server.join().expect("server thread");
    assert_eq!(accepted, 1, "every caller must share the one link");
    assert_eq!(
        seen.len(),
        THREADS * CALLS,
        "every request reached the server"
    );
    assert!(
        seen.values().all(|&n| n == 1),
        "a request frame reached the server twice"
    );
}

/// The reader's own call times out while other callers wait behind it:
/// the timed-out reader hands the role on, and the remaining callers
/// complete. The server holds every answer until the reader has given
/// up, so the followers can only finish if one of them took over the
/// reads; no frame is ever sent twice.
#[test]
fn timed_out_reader_hands_the_reader_role_on() {
    const FOLLOWERS: usize = 4;
    let call_timeout = Duration::from_secs(2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (stalled_tx, stalled_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> usize {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        // The reader's request: never answered.
        read_frame(&mut stream, &mut reader).expect("stalled request");
        stalled_tx.send(()).expect("signal");
        let mut calls = Vec::new();
        while calls.len() < FOLLOWERS {
            let body = read_frame(&mut stream, &mut reader).expect("follower request");
            calls.push(parse_call(&body).0);
        }
        release_rx.recv().expect("release");
        let mut wire = Vec::new();
        for seq in calls {
            push_response(&mut wire, seq, &RegistryResponse::Ack);
        }
        stream.write_all(&wire).expect("respond");
        let mut frames = 1 + FOLLOWERS;
        while read_frame(&mut stream, &mut reader).is_some() {
            frames += 1;
        }
        frames
    });

    let transport = transport_to(addr, call_timeout);
    std::thread::scope(|scope| {
        let transport = &transport;
        scope.spawn(move || {
            let resp = transport.call(SiteId(0), put_request("reader/stalled"));
            assert!(
                matches!(
                    resp,
                    RegistryResponse::Error {
                        error: MetaError::Unavailable
                    }
                ),
                "the stalled call must time out, got {resp:?}"
            );
            release_tx.send(()).expect("release");
        });
        stalled_rx
            .recv()
            .expect("stalled request reached the server");
        // Start the followers well inside the reader's window, so they
        // queue behind it and their own deadlines outlive it by a second.
        std::thread::sleep(call_timeout / 2);
        for i in 0..FOLLOWERS {
            scope.spawn(move || {
                let resp = transport.call(SiteId(0), put_request(&format!("reader/f{i}")));
                assert!(
                    matches!(resp, RegistryResponse::Ack),
                    "follower {i} stranded after the reader timed out: {resp:?}"
                );
            });
        }
    });
    drop(transport);
    assert_eq!(
        server.join().expect("server thread"),
        1 + FOLLOWERS,
        "no request may be sent twice"
    );
}

/// A cast issued while a call is in flight on the same link reaches the
/// server as one whole `MODE_CAST` frame, between the call frames.
#[test]
fn cast_during_an_inflight_call_arrives_whole_between_call_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cast_req = RegistryRequest::Absorb {
        entries: (0..64)
            .map(|i| {
                RegistryEntry::new(
                    format!("lazy/cast/{i}"),
                    i,
                    FileLocation {
                        site: SiteId(0),
                        node: 0,
                    },
                    0,
                )
            })
            .collect(),
    };
    let expected_cast = cast_req.encode();
    let (inflight_tx, inflight_rx) = std::sync::mpsc::channel::<()>();

    // geometa-lint: allow(untracked-thread) test fake server, joined at the end of the test
    let server = std::thread::spawn(move || -> Vec<u8> {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        let mut modes = Vec::new();
        let first = read_frame(&mut stream, &mut reader).expect("first call");
        modes.push(first[0]);
        let (seq, _) = parse_call(&first);
        // Hold the answer: the call stays in flight while the cast goes.
        inflight_tx.send(()).expect("signal");
        let cast = read_frame(&mut stream, &mut reader).expect("cast frame");
        modes.push(cast[0]);
        assert_eq!(
            &cast[1..],
            &expected_cast[..],
            "the cast frame arrived torn"
        );
        let mut wire = Vec::new();
        push_response(&mut wire, seq, &RegistryResponse::Ack);
        stream.write_all(&wire).expect("respond");
        let second = read_frame(&mut stream, &mut reader).expect("second call");
        modes.push(second[0]);
        let (seq, _) = parse_call(&second);
        wire.clear();
        push_response(&mut wire, seq, &RegistryResponse::Ack);
        stream.write_all(&wire).expect("respond");
        while read_frame(&mut stream, &mut reader).is_some() {}
        modes
    });

    let transport = transport_to(addr, Duration::from_secs(10));
    std::thread::scope(|scope| {
        let transport = &transport;
        let caller = scope.spawn(move || transport.call(SiteId(0), put_request("cast/first")));
        inflight_rx.recv().expect("first call reached the server");
        transport.cast(SiteId(0), cast_req);
        let first = caller.join().expect("caller");
        assert!(matches!(first, RegistryResponse::Ack), "got {first:?}");
    });
    let second = transport.call(SiteId(0), put_request("cast/second"));
    assert!(matches!(second, RegistryResponse::Ack), "got {second:?}");
    assert_eq!(transport.casts_shed(), 0);
    drop(transport);
    assert_eq!(
        server.join().expect("server thread"),
        vec![MODE_CALL_EPOCH, MODE_CAST, MODE_CALL_EPOCH]
    );
}
